package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// PoolDiscipline enforces the sync.Pool hygiene the engine's hot paths
// depend on (batchPool, valuesPool, pagePool, the enumerator's preparedJoin
// pool):
//
//  1. a function that Gets from a pool must either Put back to the same
//     pool or visibly hand the value off (pass it to a call, send it on a
//     channel, or return it) — otherwise the value leaks and the pool
//     degrades to plain allocation;
//  2. a value must not be used after it was Put (the pool may have handed
//     it to another goroutine already);
//  3. a slice handed directly to Put must be length-reset (Put(x[:0])), so
//     the next Get never observes stale elements.
//
// The checks are flow-insensitive per function: hand-offs across
// goroutines (the engine's batch recycling) are treated as transfers of
// ownership at the call/send site. A value that lives longer than one
// function — an emission page, taken by a map worker and released after the
// merge — goes through a pair of functions that return and accept it
// (mr.takePage / mr.releasePage), which makes each end a visible hand-off.
var PoolDiscipline = &Analyzer{
	Name: "pooldiscipline",
	Doc: "sync.Pool Gets need a matching Put or hand-off, no use-after-Put, " +
		"and pooled slices must be length-reset at Put",
	Run: runPoolDiscipline,
}

func runPoolDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		enclosingFuncs(file, func(body *ast.BlockStmt) {
			checkPoolFunc(pass, body)
		})
	}
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// poolCall classifies call as pool.Get / pool.Put, returning the receiver
// expression's printed form as the pool's identity.
func poolCall(pass *Pass, call *ast.CallExpr) (recv string, method string, ok bool) {
	sel, selOk := call.Fun.(*ast.SelectorExpr)
	if !selOk || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
		return "", "", false
	}
	t := pass.Info.TypeOf(sel.X)
	if t == nil || !isSyncPool(t) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// checkPoolFunc runs all three checks over one function body. Nested
// function literals are analyzed separately by the caller, so the walk
// stops at them: a Get whose Put lives in a nested literal counts as a
// hand-off only if the value is captured there (which the escape scan
// below observes as a use inside a CallExpr or the literal itself).
func checkPoolFunc(pass *Pass, body *ast.BlockStmt) {
	type getSite struct {
		call *ast.CallExpr
		pool string
		obj  types.Object // variable the result was assigned to, if any
	}
	var gets []getSite
	puts := make(map[string]bool) // pool identity -> has a Put in this function

	walkShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		pool, method, ok := poolCall(pass, call)
		if !ok {
			return
		}
		if method == "Put" {
			puts[pool] = true
			checkPutArg(pass, call)
			return
		}
		gets = append(gets, getSite{call: call, pool: pool})
	})

	// Resolve which variable each Get was assigned to: x := pool.Get(),
	// possibly through a type assertion.
	walkShallow(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		rhs := as.Rhs[0]
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
			rhs = ta.X
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return
		}
		for i := range gets {
			if gets[i].call != call {
				continue
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := pass.Info.Defs[id]; obj != nil {
					gets[i].obj = obj
				} else if obj := pass.Info.Uses[id]; obj != nil {
					gets[i].obj = obj
				}
			}
		}
	})

	for _, g := range gets {
		if puts[g.pool] {
			continue
		}
		if g.obj != nil && escapesFunc(pass, body, g.obj) {
			continue
		}
		if g.obj == nil && handsOffDirectly(pass, body, g.call) {
			continue
		}
		pass.Reportf(g.call.Pos(),
			"%s.Get without a matching Put or hand-off in this function: the pooled value leaks", g.pool)
	}

	checkUseAfterPut(pass, body)
}

// walkShallow visits the nodes of body without descending into nested
// function literals (each literal is checked as its own function).
func walkShallow(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// escapesFunc reports whether obj is handed off: used as a call argument,
// sent on a channel, returned, or captured by a function literal.
func escapesFunc(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if _, _, isPool := poolCall(pass, s); isPool {
				return true // the Get itself is not a hand-off
			}
			for _, arg := range s.Args {
				if usesObject(pass.Info, arg, obj) {
					escapes = true
				}
			}
		case *ast.SendStmt:
			if usesObject(pass.Info, s.Value, obj) {
				escapes = true
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if usesObject(pass.Info, res, obj) {
					escapes = true
				}
			}
		case *ast.FuncLit:
			if usesObject(pass.Info, s.Body, obj) {
				escapes = true
			}
			return false
		}
		return !escapes
	})
	return escapes
}

// handsOffDirectly covers Gets that are never bound to a variable: the
// call's result is a hand-off when it sits inside a return value, an
// argument to another (non-pool) call, or a channel send.
func handsOffDirectly(pass *Pass, body *ast.BlockStmt, get *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if nodeContains(res, get) {
					found = true
				}
			}
		case *ast.SendStmt:
			if nodeContains(s.Value, get) {
				found = true
			}
		case *ast.CallExpr:
			if s == get {
				return true
			}
			if _, _, isPool := poolCall(pass, s); isPool {
				return true
			}
			for _, arg := range s.Args {
				if nodeContains(arg, get) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// nodeContains reports whether target appears in outer's subtree.
func nodeContains(outer, target ast.Node) bool {
	found := false
	ast.Inspect(outer, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// checkPutArg enforces the slice length-reset rule on one Put call.
func checkPutArg(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	t := pass.Info.TypeOf(arg)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Slice); !ok {
		return // pointer-to-slice pools reset the pointee; not checked here
	}
	if sl, ok := arg.(*ast.SliceExpr); ok {
		if sl.Low == nil && isConstZero(pass, sl.High) {
			return // x[:0] — compliant
		}
	}
	pass.Reportf(arg.Pos(),
		"slice handed to Put without a length reset; use Put(%s[:0]) so the next Get cannot observe stale elements",
		types.ExprString(baseOf(arg)))
}

// baseOf strips slice expressions to the underlying operand for the
// suggestion text.
func baseOf(e ast.Expr) ast.Expr {
	if sl, ok := e.(*ast.SliceExpr); ok {
		return baseOf(sl.X)
	}
	return e
}

// isConstZero reports whether e is the integer constant 0.
func isConstZero(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv := pass.Info.Types[e]
	if tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	v, ok := constant.Int64Val(tv.Value)
	return ok && v == 0
}

// checkUseAfterPut flags statements that read a variable after the same
// block already Put it back, unless the variable was reassigned in
// between.
func checkUseAfterPut(pass *Pass, body *ast.BlockStmt) {
	walkShallow(body, func(n ast.Node) {
		switch block := n.(type) {
		case *ast.BlockStmt:
			checkBlockUseAfterPut(pass, block.List)
		case *ast.CaseClause:
			checkBlockUseAfterPut(pass, block.Body)
		}
	})
}

// putTarget extracts the variable a Put statement recycles, or nil.
func putTarget(pass *Pass, stmt ast.Stmt) (types.Object, *ast.CallExpr) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	if _, method, isPool := poolCall(pass, call); !isPool || method != "Put" || len(call.Args) != 1 {
		return nil, nil
	}
	arg := baseOf(call.Args[0])
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	return pass.Info.Uses[id], call
}

func checkBlockUseAfterPut(pass *Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		obj, call := putTarget(pass, stmt)
		if obj == nil {
			continue
		}
		for _, later := range stmts[i+1:] {
			if assignsObject(pass, later, obj) {
				break
			}
			if usesObject(pass.Info, later, obj) {
				pass.Reportf(later.Pos(),
					"%s is used after it was handed to Put at line %d; the pool may already have given it to another goroutine",
					obj.Name(), pass.Fset.Position(call.Pos()).Line)
				break
			}
		}
	}
}

// assignsObject reports whether stmt (at its top level) reassigns obj,
// which ends the use-after-Put window.
func assignsObject(pass *Pass, stmt ast.Stmt, obj types.Object) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if pass.Info.Uses[id] == obj || pass.Info.Defs[id] == obj {
				return true
			}
		}
	}
	return false
}
