package vbuscluster

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// checkedDocs are the documents whose quoted flags, make targets, file
// paths and test names must exist. CHANGES.md is history and exempt;
// EXPERIMENTS.md is a lab notebook checked only on its section
// headings and its "Regenerate with" lines.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	docCommand = regexp.MustCompile(`\bvb(?:cc|run|bench|serve|trace)\b`)
	docFlag    = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9-]*)")
	docMake    = regexp.MustCompile("(?:`|^\\s*)make ([a-z][a-z0-9-]*)")
	docQuoted  = regexp.MustCompile("`([^`\\s]+)`")
	docPath    = regexp.MustCompile(`^[A-Za-z0-9_.*-]+(?:/[A-Za-z0-9_.*{},-]+)*/?$`)
	flagDef    = regexp.MustCompile(`flag\.[A-Z]\w*\("([a-z][a-z0-9-]*)"`)
	makeTarget = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	docTest    = regexp.MustCompile(`^(Test[A-Z]\w*)(\*?)$`)
	testDef    = regexp.MustCompile(`(?m)^func (Test\w+)\(`)
)

// pathRoots are where a quoted relative path may start: the docs write
// `interp/run.go` for internal/interp/run.go and `jacobi.f` for
// testdata/jacobi.f.
var pathRoots = []string{"", "internal", "internal/*", "internal/*/testdata", "cmd", "testdata", "benchmark"}

// TestDocsNameRealThings fails when a checked document attributes a
// flag to a command that does not register it, names a make target the
// Makefile lacks, quotes an in-repo path that does not exist, or quotes
// a test (`TestName`, or `TestPrefix*` for a family) that no test file
// defines.
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
	var tests []string
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testDef.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	testDefined := func(name string, family bool) bool {
		for _, def := range tests {
			if def == name || family && strings.HasPrefix(def, name) {
				return true
			}
		}
		return false
	}

	for _, doc := range checkedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			if doc == "EXPERIMENTS.md" && !strings.HasPrefix(line, "#") && !strings.Contains(line, "Regenerate with") {
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
				if m := docTest.FindStringSubmatch(q[1]); m != nil && !testDefined(m[1], m[2] != "") {
					at("no test file defines %s", q[1])
				}
			}
		}
	}
}

// designCeiling is the most bytes DESIGN.md may hold: a ratchet toward
// the 50 KB of ROADMAP item 9, so text a change adds must displace
// text it retires. Lower it when the document shrinks; never raise it.
const designCeiling = 80395

func TestDesignSizeRatchet(t *testing.T) {
	fi, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > designCeiling {
		t.Errorf("DESIGN.md holds %d bytes, more than its ceiling of %d: retire old text for the new", fi.Size(), designCeiling)
	}
}

// TestUsageSynopsesMatchFlags: a command whose doc comment opens its
// Usage section with a synopsis ("vbrun [-procs N] … file.f") lists
// there exactly the flags it registers.
func TestUsageSynopsesMatchFlags(t *testing.T) {
	synFlag := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`)
	for _, cmd := range []string{"vbcc", "vbrun", "vbserve"} {
		src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		registered := map[string]bool{}
		for _, d := range flagDef.FindAllStringSubmatch(string(src), -1) {
			registered[d[1]] = true
		}
		_, usage, _ := strings.Cut(string(src), "// Usage:\n//\n")
		listed := map[string]bool{}
		for _, line := range strings.Split(usage, "\n") {
			if !strings.HasPrefix(line, "//\t") {
				break
			}
			for _, m := range synFlag.FindAllStringSubmatch(line, -1) {
				listed[m[1]] = true
			}
		}
		for name := range registered {
			if !listed[name] {
				t.Errorf("%s: usage synopsis omits -%s", cmd, name)
			}
		}
		for name := range listed {
			if !registered[name] {
				t.Errorf("%s: usage synopsis lists -%s, which it does not register", cmd, name)
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
