package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"intervaljoin/internal/lint/flow"
)

// EmitterEscape enforces the mr.Emitter contract: an emitter handed to a
// MapFunc or PosMapFunc writes into the worker's emission log, so it is
// only valid for the duration of that call on that goroutine. Storing it in
// a struct or global, sending it on a channel, returning it, or handing it
// to a spawned goroutine lets emissions race the map worker (the next task
// appends to the log the escaped emitter still points at, and the end of
// the map phase returns its pages to a pool). The check is
// interprocedural: passing the emitter into a function
// whose own parameter escapes — directly or through further calls — is
// flagged at the call site. The analyzer also flags EmitRange calls whose
// constant bounds are provably inverted (lo > hi): such a call silently
// emits nothing.
var EmitterEscape = &Analyzer{
	Name: "emitterescape",
	Doc: "an mr.Emitter must not outlive the map/combine call it was passed " +
		"to, even through helper calls, and EmitRange constant bounds must " +
		"not be inverted",
	Run: runEmitterEscape,
}

func isEmitterType(t types.Type) bool {
	return namedTypeIs(t, "internal/mr", "Emitter")
}

func runEmitterEscape(pass *Pass) {
	esc := emitterEscapes(pass.Flow)
	for _, file := range pass.Files {
		// Escape checks run per function that receives an Emitter parameter.
		ast.Inspect(file, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch d := n.(type) {
			case *ast.FuncDecl:
				ftype, body = d.Type, d.Body
			case *ast.FuncLit:
				ftype, body = d.Type, d.Body
			default:
				return true
			}
			if body == nil || ftype.Params == nil {
				return true
			}
			for _, field := range ftype.Params.List {
				for _, name := range field.Names {
					obj := pass.Info.Defs[name]
					if obj == nil || !isEmitterType(obj.Type()) {
						continue
					}
					objs := emitterAliases(pass.Info, body, obj)
					walkEmitterEscapes(pass.Info, pass.Pkg.Scope(), body, objs, pass.Reportf)
				}
			}
			return true
		})

		// Interprocedural check: an emitter handed to a callee whose
		// parameter escapes is as gone as one stored directly.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, m := range pass.Flow.Callees(pass.Unit, call) {
				for i := range esc.params[m] {
					if i >= len(call.Args) || !isEmitterType(pass.Info.TypeOf(call.Args[i])) {
						continue
					}
					pass.Reportf(call.Args[i].Pos(),
						"mr.Emitter passed to %s, which lets it escape; it must not outlive the map/combine call", m.String())
				}
			}
			return true
		})

		// Constant-bound checks run over every EmitRange call site.
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "EmitRange" || len(call.Args) < 2 {
				return true
			}
			recv := pass.Info.TypeOf(sel.X)
			if recv == nil || !isEmitterType(recv) {
				return true
			}
			lo := pass.Info.Types[call.Args[0]].Value
			hi := pass.Info.Types[call.Args[1]].Value
			if lo != nil && hi != nil && constant.Compare(lo, token.GTR, hi) {
				pass.Reportf(call.Pos(),
					"EmitRange bounds are constants with lo (%s) > hi (%s): the call emits nothing", lo, hi)
			}
			return true
		})
	}
}

// emitterEscapeInfo records, per function, which Emitter-typed parameters
// escape — directly in the body, or transitively by being handed to
// another escaping parameter.
type emitterEscapeInfo struct {
	params map[*flow.Node]map[int]bool
}

func (e *emitterEscapeInfo) mark(n *flow.Node, i int) bool {
	if e.params[n] == nil {
		e.params[n] = make(map[int]bool)
	}
	if e.params[n][i] {
		return false
	}
	e.params[n][i] = true
	return true
}

// emitterEscapes computes the module-wide escaping-parameter summary once
// per graph.
func emitterEscapes(g *flow.Graph) *emitterEscapeInfo {
	return g.Memo("emitterescape", func() any {
		info := &emitterEscapeInfo{params: make(map[*flow.Node]map[int]bool)}
		aliases := make(map[*flow.Node]map[int]map[types.Object]bool)
		for _, n := range g.Nodes() {
			sig := n.Signature()
			if sig == nil || n.Body == nil {
				continue
			}
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				if !isEmitterType(p.Type()) {
					continue
				}
				objs := emitterAliases(n.Unit.Info, n.Body, p)
				if aliases[n] == nil {
					aliases[n] = make(map[int]map[types.Object]bool)
				}
				aliases[n][i] = objs
				escaped := false
				walkEmitterEscapes(n.Unit.Info, n.Unit.Pkg.Scope(), n.Body, objs,
					func(token.Pos, string, ...any) { escaped = true })
				if escaped {
					info.mark(n, i)
				}
			}
		}
		// Transitive closure: a parameter handed to an escaping parameter
		// escapes too. Function-literal bodies are their own nodes and are
		// skipped here; a literal capturing the parameter is caught by the
		// direct goroutine/store checks instead.
		for changed := true; changed; {
			changed = false
			for n, ps := range aliases {
				for i, objs := range ps {
					if info.params[n][i] {
						continue
					}
					found := false
					summaryWalk(n.Body, func(c ast.Node) bool {
						if found {
							return false
						}
						call, ok := c.(*ast.CallExpr)
						if !ok {
							return true
						}
						for _, m := range g.Callees(n.Unit, call) {
							for j := range info.params[m] {
								if j < len(call.Args) && mentionsAnyObject(n.Unit.Info, call.Args[j], objs) {
									found = true
								}
							}
						}
						return true
					})
					if found && info.mark(n, i) {
						changed = true
					}
				}
			}
		}
		return info
	}).(*emitterEscapeInfo)
}

func mentionsAnyObject(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	for obj := range objs {
		if usesObject(info, n, obj) {
			return true
		}
	}
	return false
}

// emitterAliases collects the parameter and its local aliases (x := emit),
// a forward fixpoint over the body: aliases of aliases in later statements
// are found on the next round.
func emitterAliases(info *types.Info, body *ast.BlockStmt, param types.Object) map[types.Object]bool {
	objs := map[types.Object]bool{param: true}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok || !objs[info.Uses[id]] {
					continue
				}
				if lid, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := info.Defs[lid]; obj != nil && !objs[obj] {
						objs[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return objs
}

// walkEmitterEscapes walks one function body looking for ways the emitter
// object (or a local alias of it) can outlive the call, reporting each
// escape through report.
func walkEmitterEscapes(info *types.Info, pkgScope *types.Scope, body *ast.BlockStmt, objs map[types.Object]bool, report func(pos token.Pos, format string, args ...any)) {
	mentions := func(n ast.Node) bool {
		return mentionsAnyObject(info, n, objs)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) || !mentions(rhs) {
					continue
				}
				switch lhs := s.Lhs[i].(type) {
				case *ast.SelectorExpr:
					report(s.Pos(), "mr.Emitter stored in a struct field or package variable; it must not outlive the map/combine call")
				case *ast.IndexExpr:
					report(s.Pos(), "mr.Emitter stored in a slice or map element; it must not outlive the map/combine call")
				case *ast.Ident:
					if obj := info.Uses[lhs]; obj != nil {
						if v, ok := obj.(*types.Var); ok && v.Parent() == pkgScope {
							report(s.Pos(), "mr.Emitter stored in package variable %s; it must not outlive the map/combine call", lhs.Name)
						}
					}
				}
			}
		case *ast.SendStmt:
			if mentions(s.Value) {
				report(s.Pos(), "mr.Emitter sent on a channel; it must not outlive the map/combine call")
			}
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if mentions(res) {
					report(s.Pos(), "mr.Emitter returned from the function it was passed to; it must not outlive the call")
				}
			}
		case *ast.GoStmt:
			if mentions(s.Call) {
				report(s.Pos(), "mr.Emitter used by a spawned goroutine; emissions would race the map worker's log")
				return false // already reported: skip the literal's body
			}
		case *ast.CompositeLit:
			typ := info.TypeOf(s)
			if typ != nil && isEmitterType(typ) {
				return true // constructing an Emitter is not an escape
			}
			for _, elt := range s.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if mentions(val) {
					report(elt.Pos(), "mr.Emitter stored in a composite literal; it must not outlive the map/combine call")
				}
			}
		}
		return true
	})
}
