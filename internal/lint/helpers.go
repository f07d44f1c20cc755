package lint

import (
	"go/ast"
	"go/types"
)

// pkgFunc resolves a call to a package-level function of an imported
// package: for `rand.Intn(3)` it returns ("math/rand", "Intn"). The
// import path comes from the type-checker, so renamed imports cannot
// hide a call. ok is false for method calls, local calls, builtins,
// and conversions.
func pkgFunc(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	ident, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[ident].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isContext reports whether t is context.Context (or a pointer to it),
// seen through aliases.
func isContext(t types.Type) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// hasPath reports whether list contains path.
func hasPath(list []string, path string) bool {
	for _, p := range list {
		if p == path {
			return true
		}
	}
	return false
}
