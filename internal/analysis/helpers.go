package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// groupHasMarker reports whether any comment in the group carries the
// marker as a whole field.
func groupHasMarker(g *ast.CommentGroup, marker string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		for _, f := range strings.Fields(c.Text) {
			if f == marker {
				return true
			}
		}
	}
	return false
}

// FileMarked reports whether the file's package documentation carries the
// marker. Package-scoped contracts (such as `emcgm:deterministic`) are
// declared once, in the doc comment of the file that documents the
// package.
func FileMarked(f *ast.File, marker string) bool {
	return groupHasMarker(f.Doc, marker)
}

// FuncMarked reports whether the function's doc comment carries the
// marker.
func FuncMarked(fd *ast.FuncDecl, marker string) bool {
	return groupHasMarker(fd.Doc, marker)
}

// Callee resolves the statically-called function for plain, selector,
// parenthesised, and generic-instantiation call expressions; nil for
// calls through function values.
func Callee(info *types.Info, fun ast.Expr) *types.Func {
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(f).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(f.Sel).(*types.Func)
		return fn
	case *ast.ParenExpr:
		return Callee(info, f.X)
	case *ast.IndexExpr:
		return Callee(info, f.X)
	case *ast.IndexListExpr:
		return Callee(info, f.X)
	}
	return nil
}
