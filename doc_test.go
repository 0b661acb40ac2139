package vbuscluster

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// checkedDocs are the documents whose quoted flags, make targets and
// file paths must exist. CHANGES.md is history and exempt;
// EXPERIMENTS.md is a lab notebook checked only on its "Regenerate
// with" lines.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	docCommand = regexp.MustCompile(`\bvb(?:cc|run|bench|serve|trace)\b`)
	docFlag    = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9-]*)")
	docMake    = regexp.MustCompile("(?:`|^\\s*)make ([a-z][a-z0-9-]*)")
	docQuoted  = regexp.MustCompile("`([^`\\s]+)`")
	docPath    = regexp.MustCompile(`^[A-Za-z0-9_.*-]+(?:/[A-Za-z0-9_.*{},-]+)*/?$`)
	flagDef    = regexp.MustCompile(`flag\.[A-Z]\w*\("([a-z][a-z0-9-]*)"`)
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
)

// pathRoots are where a quoted relative path may start: the docs write
// `interp/run.go` for internal/interp/run.go and `jacobi.f` for
// testdata/jacobi.f.
var pathRoots = []string{"", "internal", "internal/*", "internal/*/testdata", "cmd", "testdata", "benchmark"}

// TestDocsNameRealThings fails when a checked document attributes a
// flag to a command that does not register it, names a make target the
// Makefile lacks, or quotes an in-repo path that does not exist.
func TestDocsNameRealThings(t *testing.T) {
	flags := map[string]map[string]bool{}
	mains, _ := filepath.Glob("cmd/*/main.go")
	for _, m := range mains {
		src, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, d := range flagDef.FindAllStringSubmatch(string(src), -1) {
			set[d[1]] = true
		}
		flags[filepath.Base(filepath.Dir(m))] = set
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	for _, doc := range checkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			if doc == "EXPERIMENTS.md" && !strings.Contains(line, "Regenerate with") {
				continue
			}
			at := func(format string, args ...any) {
				t.Errorf("%s:%d: "+format, append([]any{doc, n + 1}, args...)...)
			}
			// A flag belongs to the command named last before it on the line.
			cmds := docCommand.FindAllStringIndex(line, -1)
			for _, f := range docFlag.FindAllStringSubmatchIndex(line, -1) {
				cmd := ""
				for _, c := range cmds {
					if c[1] <= f[2] {
						cmd = line[c[0]:c[1]]
					}
				}
				if name := line[f[2]:f[3]]; cmd != "" && !flags[cmd][name] {
					at("%s has no flag -%s", cmd, name)
				}
			}
			for _, m := range docMake.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					at("the Makefile has no target %q", m[1])
				}
			}
			for _, q := range docQuoted.FindAllStringSubmatch(line, -1) {
				if p := q[1]; looksLikeRepoPath(p) && !existsUnderRoots(p) {
					at("path %s does not exist", p)
				}
			}
		}
	}
}

// looksLikeRepoPath accepts quoted tokens that name a file or directory
// of this repository: a slash-separated path whose first segment is a
// directory here, or a bare *.md / *.json / *.f / *.sh file name.
func looksLikeRepoPath(p string) bool {
	p = strings.TrimPrefix(p, "./")
	if !docPath.MatchString(p) {
		return false
	}
	if first, _, nested := strings.Cut(p, "/"); nested {
		return existsUnderRoots(first)
	}
	switch filepath.Ext(p) {
	case ".md", ".json", ".f", ".sh":
		return true
	}
	return false
}

// existsUnderRoots resolves p (a path or glob, optionally with a
// :line suffix) against every path root.
func existsUnderRoots(p string) bool {
	p, _, _ = strings.Cut(strings.TrimPrefix(p, "./"), ":")
	for _, root := range pathRoots {
		if m, _ := filepath.Glob(filepath.Join(root, p)); len(m) > 0 {
			return true
		}
	}
	return false
}
