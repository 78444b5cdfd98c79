package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShardLock enforces the sharded shuffle's locking discipline: a struct
// that embeds a sync.Mutex / sync.RWMutex next to shared state (the shard
// pattern — mr's sink, dfs's Mem) must only have its
// non-mutex fields written while the owning lock is held. The heuristic is
// flow-insensitive, as races demand nothing subtler to sneak in: a write
// to such a field is compliant when the same function has already called
// Lock() on the struct's mutex through the same base expression, and
// flagged otherwise. Freshly constructed values (x := S{...} / &S{...} /
// new(S) in the same function) are exempt — initialisation before
// publication needs no lock.
var ShardLock = &Analyzer{
	Name: "shardlock",
	Doc: "fields of mutex-carrying shard structs must be written with the " +
		"owning lock held (flow-insensitive)",
	Run: runShardLock,
}

func runShardLock(pass *Pass) {
	lockable := lockableStructs(pass)
	if len(lockable) == 0 {
		return
	}
	for _, file := range pass.Files {
		enclosingFuncs(file, func(body *ast.BlockStmt) {
			checkShardFunc(pass, body, lockable)
		})
	}
}

// lockableStructs maps the package's mutex-carrying named struct types to
// the names of their mutex fields.
func lockableStructs(pass *Pass) map[*types.Named][]string {
	out := make(map[*types.Named][]string)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var mutexes []string
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isSyncMutex(f.Type()) {
				mutexes = append(mutexes, f.Name())
			}
		}
		if len(mutexes) > 0 {
			out[named] = mutexes
		}
	}
	return out
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// fieldWrite describes one write to a lockable struct's field.
type fieldWrite struct {
	pos      ast.Node
	base     ast.Expr // expression the field is selected from
	named    *types.Named
	field    string
	writeVia string // "assignment", "delete", ...
}

// checkShardFunc flags unguarded field writes within one function body.
// The walk is shallow: a nested function literal is its own frame (the
// caller visits it separately), so a goroutine that writes shared state
// must take the lock inside its own body, not inherit it lexically.
func checkShardFunc(pass *Pass, body *ast.BlockStmt, lockable map[*types.Named][]string) {
	var writes []fieldWrite
	walkShallow(body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if w, ok := resolveFieldWrite(pass, lhs, lockable); ok {
					w.pos = s
					writes = append(writes, w)
				}
			}
		case *ast.IncDecStmt:
			if w, ok := resolveFieldWrite(pass, s.X, lockable); ok {
				w.pos = s
				writes = append(writes, w)
			}
		case *ast.CallExpr:
			if isBuiltin(pass.Info, s, "delete") && len(s.Args) > 0 {
				if w, ok := resolveFieldWrite(pass, s.Args[0], lockable); ok {
					w.pos = s
					w.writeVia = "delete"
					writes = append(writes, w)
				}
			}
		}
	})
	for _, w := range writes {
		baseStr := types.ExprString(w.base)
		if constructedLocally(pass, body, w.base) {
			continue
		}
		if lockHeldBefore(pass, body, baseStr, lockable[w.named], w.pos) {
			continue
		}
		pass.Reportf(w.pos.Pos(),
			"write to %s.%s (struct %s carries lock %s) without %s.%s.Lock() earlier in this function",
			baseStr, w.field, w.named.Obj().Name(), strings.Join(lockable[w.named], "/"),
			baseStr, lockable[w.named][0])
	}
}

// resolveFieldWrite recognises expr as a write target rooted in a lockable
// struct's non-mutex field: base.f, base.f[k], or base.f[k1][k2]...
func resolveFieldWrite(pass *Pass, expr ast.Expr, lockable map[*types.Named][]string) (fieldWrite, bool) {
	for {
		if idx, ok := expr.(*ast.IndexExpr); ok {
			expr = idx.X
			continue
		}
		break
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return fieldWrite{}, false
	}
	selection := pass.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return fieldWrite{}, false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return fieldWrite{}, false
	}
	mutexes, ok := lockable[named]
	if !ok {
		return fieldWrite{}, false
	}
	field := sel.Sel.Name
	for _, m := range mutexes {
		if field == m {
			return fieldWrite{}, false // locking the lock is not a data write
		}
	}
	return fieldWrite{base: sel.X, named: named, field: field, writeVia: "assignment"}, true
}

// lockHeldBefore reports whether base.<mutex>.Lock() is called before pos
// in the same function body.
func lockHeldBefore(pass *Pass, body *ast.BlockStmt, baseStr string, mutexes []string, pos ast.Node) bool {
	held := false
	ast.Inspect(body, func(n ast.Node) bool {
		if held {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos.Pos() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Lock" {
			return true
		}
		lockSel, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		for _, m := range mutexes {
			if lockSel.Sel.Name == m && types.ExprString(lockSel.X) == baseStr {
				held = true
			}
		}
		return !held
	})
	return held
}

// constructedLocally reports whether base is an identifier bound in this
// function to a freshly constructed value (composite literal, address of
// one, or new(T)) — pre-publication initialisation.
func constructedLocally(pass *Pass, body *ast.BlockStmt, base ast.Expr) bool {
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return false
	}
	fresh := false
	ast.Inspect(body, func(n ast.Node) bool {
		if fresh {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || (pass.Info.Defs[lid] != obj && pass.Info.Uses[lid] != obj) {
				continue
			}
			if i >= len(as.Rhs) {
				continue
			}
			if isFreshValue(pass, as.Rhs[i]) {
				fresh = true
			}
		}
		return !fresh
	})
	return fresh
}

// isFreshValue recognises S{...}, &S{...} and new(S).
func isFreshValue(pass *Pass, e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := v.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		return isBuiltin(pass.Info, v, "new")
	}
	return false
}
