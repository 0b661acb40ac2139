package commcost_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// pricingCalls are the cost-model methods whose results decide what a
// data transfer costs or which path it takes. Collective, barrier and
// lock pricing through SendSetup/ContigTime/BroadcastTime is not
// transfer pricing and stays allowed.
var pricingCalls = map[string]bool{
	"EagerTime": true, "RendezvousTime": true, "PackedTime": true, "PIOTime": true,
	"StridedTime": true, "CrossoverElems": true, "ProtocolCrossoverBytes": true,
}

// TestTransferPricingStaysInKernel walks the non-test sources of the
// layers above the kernel and fails on any call to a transfer-pricing
// cost function, any type assertion to interconnect.ProtocolModel and
// any mention of interconnect.RegKey (no RegCache.Lookup or Use call
// can be written without building a key) — so the next duplicated copy
// of the pricing rule fails here, at the line that adds it.
func TestTransferPricingStaysInKernel(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"mpi", "postpass", "interp", "cluster", "core"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for internal/%s: %v", pkg, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && pricingCalls[sel.Sel.Name] {
						t.Errorf("%s: call to %s: price transfers through commcost.Kernel.Price",
							fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.TypeAssertExpr:
					if isInterconnect(n.Type, "ProtocolModel") {
						t.Errorf("%s: type assertion to interconnect.ProtocolModel: only commcost resolves the protocol model",
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
		}
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
