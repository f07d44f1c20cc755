package lint

import (
	"go/ast"
	"go/types"
)

// PoolPair builds the poolpair analyzer, the static form of the
// pooling ownership contract: every sync.Pool that is drawn from must
// also be refilled somewhere in the same package (a Get with no Put
// anywhere is a pool in name only — pure allocation with bookkeeping
// overhead), and a value drawn from a pool must either be released in
// the same function or escape it (returned, stored, or passed on, i.e.
// ownership transferred to a caller who releases it, the pattern
// gpusim's Program.Recycle follows). A drawn value that
// provably stays local without a Put is a leak on every path.
func PoolPair() *Analyzer {
	a := &Analyzer{
		Name: "poolpair",
		Doc:  "every sync.Pool Get is paired with a Put or an ownership transfer",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info

		// Package-level pairing: collect the pool objects (the field or
		// variable a Get/Put selector roots at) used by each verb.
		gets := map[types.Object][]ast.Node{}
		puts := map[types.Object]bool{}
		var funcs []*ast.FuncDecl
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					funcs = append(funcs, fd)
				}
			}
		}
		for _, fd := range funcs {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj, verb := poolCall(info, call)
				if obj == nil {
					return true
				}
				if verb == "Get" {
					gets[obj] = append(gets[obj], call)
				} else {
					puts[obj] = true
				}
				return true
			})
		}
		for obj, sites := range gets {
			if !puts[obj] {
				pass.Reportf(sites[0].Pos(), "sync.Pool %s has a Get but no Put anywhere in package %s; a never-refilled pool leaks its contract", obj.Name(), pass.Pkg.Path)
			}
		}

		// Function-level pairing: a drawn value must be Put in the same
		// function or escape it.
		for _, fd := range funcs {
			checkPoolGets(pass, fd)
		}
	}
	return a
}

// poolCall resolves a call to (*sync.Pool).Get or Put, returning the
// object the pool expression roots at (a field or variable) so Gets
// and Puts on the same pool can be matched.
func poolCall(info *types.Info, call *ast.CallExpr) (types.Object, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
		return nil, ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return nil, ""
	}
	recv := namedOf(tv.Type)
	if recv == nil || typeKey(recv) != "sync.Pool" {
		return nil, ""
	}
	// Root object: p.arenaPool.Get → field arenaPool; scratchPool.Get →
	// var scratchPool.
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return info.Uses[x], sel.Sel.Name
	case *ast.SelectorExpr:
		return info.Uses[x.Sel], sel.Sel.Name
	}
	return nil, ""
}

// checkPoolGets flags Gets whose value is dropped or provably stays
// local without a matching Put in the function.
func checkPoolGets(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	// Pools released anywhere in this function (including defers).
	released := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, verb := poolCall(info, call); obj != nil && verb == "Put" {
				released[obj] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj, verb := poolCall(info, call)
		if obj == nil || verb != "Get" || released[obj] {
			return true
		}
		if usedDirectly(fd.Body, call) {
			return true
		}
		v := boundIdent(fd.Body, call)
		if v == nil {
			pass.Reportf(call.Pos(), "value drawn from sync.Pool %s is dropped; pair the Get with a Put", obj.Name())
			return true
		}
		if !escapes(info, fd.Body, v) {
			pass.Reportf(call.Pos(), "value drawn from sync.Pool %s stays local and is never Put back; pair the Get with a Put or transfer ownership", obj.Name())
		}
		return true
	})
}

// usedDirectly reports whether the Get result is consumed in place —
// returned or passed straight to another call (possibly through a type
// assertion) — which transfers ownership without binding a name.
func usedDirectly(body *ast.BlockStmt, get *ast.CallExpr) bool {
	strip := func(e ast.Expr) ast.Expr {
		e = ast.Unparen(e)
		if ta, ok := e.(*ast.TypeAssertExpr); ok {
			e = ast.Unparen(ta.X)
		}
		return e
	}
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if strip(r) == get {
					used = true
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if strip(arg) == get {
					used = true
				}
			}
		}
		return !used
	})
	return used
}

// boundIdent finds the identifier the Get result is bound to,
// unwrapping one type assertion (`v, _ := pool.Get().(*T)` and
// `v := pool.Get().(*T)` both bind v); nil means dropped.
func boundIdent(body *ast.BlockStmt, get *ast.CallExpr) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || found != nil {
			return true
		}
		for i, rhs := range assign.Rhs {
			e := ast.Unparen(rhs)
			if ta, ok := e.(*ast.TypeAssertExpr); ok {
				e = ast.Unparen(ta.X)
			}
			if e != get {
				continue
			}
			// Multi-value forms (v, ok := ...) bind the value first.
			idx := 0
			if len(assign.Rhs) == len(assign.Lhs) {
				idx = i
			}
			if id, ok := assign.Lhs[idx].(*ast.Ident); ok && id.Name != "_" {
				found = id
			}
			return false
		}
		return true
	})
	return found
}

// escapes reports whether v's value leaves the function: returned,
// passed as a call argument, stored through a selector/index/deref or
// into a composite literal, sent on a channel, or captured by address.
// Receiver-position method calls (v.reset()) and field reads stay
// local.
func escapes(info *types.Info, body *ast.BlockStmt, v *ast.Ident) bool {
	obj := info.Defs[v]
	if obj == nil {
		obj = info.Uses[v]
	}
	if obj == nil {
		return true // unresolvable: stay quiet
	}
	isV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
	}
	esc := false
	ast.Inspect(body, func(n ast.Node) bool {
		if esc {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isV(r) {
					esc = true
				}
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if isV(arg) {
					esc = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isV(rhs) {
					continue
				}
				// Assigning v into anything but a fresh local transfers it.
				if i < len(n.Lhs) {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && n.Tok.String() == ":=" && id.Name != "_" {
						continue
					}
				}
				esc = true
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if isV(el) {
					esc = true
				}
			}
		case *ast.SendStmt:
			if isV(n.Value) {
				esc = true
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" && isV(n.X) {
				esc = true
			}
		case *ast.IndexExpr:
			// v stored as a map/slice element value is handled by
			// AssignStmt; v used as an index stays local.
		}
		return true
	})
	return esc
}
