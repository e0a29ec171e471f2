package rsin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestLinkStateWrittenOnlyInTopology keeps the fabric's link words honest:
// topology.Network mirrors every link's State in bit words that the
// solvers read instead of the links (internal/topology/words.go), and only
// topology's own methods update both together. An assignment to a link's
// State anywhere else — `net.Links[i].State = ...`, or through a pointer
// taken as `&net.Links[i]` — would leave the words stale, so it fails
// here. Route the write through a topology method (OccupyLink, Establish,
// Release, ForceRelease, Reset) instead.
func TestLinkStateWrittenOnlyInTopology(t *testing.T) {
	topo := filepath.Join("internal", "topology")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == topo || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, pos := range linkStateWrites(f) {
			t.Errorf("%s: assignment to a link's State outside internal/topology; use a topology method", fset.Position(pos))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("scanned no Go files")
	}
}

// linkStateWrites returns the positions of the assignments in f whose
// target is the State field of an element of a slice named Links, read
// directly or through a variable bound to &<...>.Links[i].
func linkStateWrites(f *ast.File) []token.Pos {
	intoLinks := func(e ast.Expr) bool {
		ix, ok := ast.Unparen(e).(*ast.IndexExpr)
		return ok && strings.HasSuffix(types.ExprString(ix.X), "Links")
	}
	ptrs := map[string]bool{} // identifiers ever bound to &...Links[i]
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, rhs := range as.Rhs {
				if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.AND && intoLinks(u.X) {
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						ptrs[id.Name] = true
					}
				}
			}
		}
		return true
	})
	var out []token.Pos
	target := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "State" {
			return
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); (ok && ptrs[id.Name]) || intoLinks(sel.X) {
			out = append(out, sel.Pos())
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(s.X)
		}
		return true
	})
	return out
}
