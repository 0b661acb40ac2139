package commcost_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// chargeCalls are the card primitives and optional-extension methods
// every charge is composed from: what a transfer, a barrier, a lock
// word, a collective or a recovery round costs is decided by combining
// these, and only the kernel combines them.
var chargeCalls = map[string]bool{
	"SendSetup": true, "ContigTime": true, "StridedTime": true, "BroadcastTime": true,
	"EagerTime": true, "RendezvousTime": true, "ProtocolCrossoverBytes": true,
}

// protocolCalls are the protocol model's methods. internal/bench's rdma
// sweep reads them through Kernel.Protocol as the independent reference
// its measured clocks must equal — a check, not a charge — so they stay
// allowed there and nowhere else.
var protocolCalls = map[string]bool{"EagerTime": true, "RendezvousTime": true, "ProtocolCrossoverBytes": true}

// exemptPackages implement the primitives rather than compose them: the
// kernel itself, the card models, the interconnect seam and the fabric
// and flit-level mesh simulators.
var exemptPackages = map[string]bool{
	"commcost": true, "nic": true, "interconnect": true, "mesh": true, "fabric": true,
}

// TestTransferPricingStaysInKernel walks the non-test sources of every
// package under internal/, cmd/ and examples/ except the exempt ones
// and fails on any call to a card primitive (bench's protocol-model
// reference aside), any type assertion to
// interconnect.ProtocolModel or interconnect.Bus and any mention of
// interconnect.RegKey (no RegCache.Lookup or Use call can be written
// without building a key) — so the next charge composed by hand, or
// the next copy of the pricing rule, fails here at the line that adds
// it.
func TestTransferPricingStaysInKernel(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"..", "../../cmd", "../../examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || (root == ".." && exemptPackages[d.Name()]) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			files++
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if ok && chargeCalls[sel.Sel.Name] && !(protocolCalls[sel.Sel.Name] && filepath.Base(filepath.Dir(path)) == "bench") {
						t.Errorf("%s: call to %s: compose charges through commcost.Kernel",
							fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.TypeAssertExpr:
					if isInterconnect(n.Type, "ProtocolModel") || isInterconnect(n.Type, "Bus") {
						t.Errorf("%s: type assertion to an optional card extension: only commcost.New resolves them",
							fset.Position(n.Pos()))
					}
				case *ast.SelectorExpr:
					if isInterconnect(n, "RegKey") {
						t.Errorf("%s: interconnect.RegKey: only commcost consults or warms a registration cache",
							fset.Position(n.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("walked only %d source files; the roots moved?", files)
	}
}

// isInterconnect reports whether e is the qualified identifier
// interconnect.name.
func isInterconnect(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "interconnect"
}
