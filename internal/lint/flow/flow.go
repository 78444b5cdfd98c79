// Package flow gives ijlint's analyzers the interprocedural facts that
// per-file AST walks cannot see: a module-wide static call graph
// (type-informed, method-set aware, with function-value tracking for the
// callback style the engine uses), a per-function control-flow graph, and
// a small forward fixed-point dataflow engine over it.
//
// The design trades precision for zero dependencies and predictable cost:
//
//   - Calls through interfaces resolve to every module type whose method
//     set satisfies the interface (class-hierarchy analysis).
//   - Function values are tracked flow-insensitively: a func literal or
//     function reference assigned to a variable, stored in a struct
//     field, passed as an argument, or returned from a function may be
//     called wherever that variable, field, parameter, or call result is
//     invoked.
//   - Collections are opaque: function values stored in slices, maps, or
//     channels are lost. None of the engine's callbacks travel that way.
//
// Everything is a may-analysis: call edges are over-approximate, so
// analyzers built on the graph err toward reporting, never silence.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Unit is one type-checked package handed to the graph builder. It
// mirrors the lint loader's Package without importing it (lint imports
// flow, not the reverse).
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Node is one function in the call graph: a declared function or method
// (Func set) or a function literal (Lit set).
type Node struct {
	Func *types.Func  // declared function or method; nil for literals
	Lit  *ast.FuncLit // function literal; nil for declarations
	Body *ast.BlockStmt
	Unit *Unit

	cfg *CFG
}

// String names the node for diagnostics.
func (n *Node) String() string {
	if n.Func != nil {
		return n.Func.FullName()
	}
	pos := n.Unit.Fset.Position(n.Lit.Pos())
	return fmt.Sprintf("func literal at %s:%d", filepath.Base(pos.Filename), pos.Line)
}

// Signature returns the node's function signature.
func (n *Node) Signature() *types.Signature {
	if n.Func != nil {
		return n.Func.Type().(*types.Signature)
	}
	if sig, ok := n.Unit.Info.TypeOf(n.Lit).(*types.Signature); ok {
		return sig
	}
	return types.NewSignatureType(nil, nil, nil, nil, nil, false)
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Func != nil {
		return n.Func.Pos()
	}
	return n.Lit.Pos()
}

// Graph is the module-wide call graph plus the flow facts needed to
// resolve indirect calls.
type Graph struct {
	Units []*Unit

	nodes  []*Node
	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node

	// flows[obj] lists the function nodes whose values may be stored in
	// obj — a variable, struct field, or parameter of function type.
	flows map[types.Object][]*Node

	named []*types.Named // module named types, for interface resolution
	impls map[implKey][]*Node
	memo  map[string]any
}

type implKey struct {
	iface  *types.Interface
	method string
}

// Build constructs the call graph over the given units.
func Build(units []*Unit) *Graph {
	g := &Graph{
		Units:  units,
		byFunc: make(map[*types.Func]*Node),
		byLit:  make(map[*ast.FuncLit]*Node),
		flows:  make(map[types.Object][]*Node),
		impls:  make(map[implKey][]*Node),
		memo:   make(map[string]any),
	}
	for _, u := range units {
		u := u
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						return true
					}
					fn, ok := u.Info.Defs[d.Name].(*types.Func)
					if !ok {
						return true
					}
					nd := &Node{Func: fn, Body: d.Body, Unit: u}
					g.nodes = append(g.nodes, nd)
					g.byFunc[fn] = nd
				case *ast.FuncLit:
					nd := &Node{Lit: d, Body: d.Body, Unit: u}
					g.nodes = append(g.nodes, nd)
					g.byLit[d] = nd
				}
				return true
			})
		}
		scope := u.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					g.named = append(g.named, named)
				}
			}
		}
	}
	newFlowBuilder(g).build()
	return g
}

// Nodes returns every function and literal of the module, in source order
// per unit.
func (g *Graph) Nodes() []*Node { return g.nodes }

// NodeOf returns the node for a declared function or method, or nil for
// functions outside the built units.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byFunc[fn.Origin()]
}

// CFG returns the node's control-flow graph, building it on first use.
func (g *Graph) CFG(n *Node) *CFG {
	if n.cfg == nil {
		n.cfg = buildCFG(n.Body)
	}
	return n.cfg
}

// Memo caches an analyzer's module-wide computation on the graph so a
// per-package Run does the expensive derivation once.
func (g *Graph) Memo(key string, build func() any) any {
	if v, ok := g.memo[key]; ok {
		return v
	}
	v := build()
	g.memo[key] = v
	return v
}

// Callees resolves a call expression inside unit u to the module function
// nodes it may invoke. Calls to functions outside the built units (the
// standard library) resolve to nothing.
func (g *Graph) Callees(u *Unit, call *ast.CallExpr) []*Node {
	switch fun := unwrap(call.Fun).(type) {
	case *ast.FuncLit:
		if n := g.byLit[fun]; n != nil {
			return []*Node{n}
		}
	case *ast.Ident:
		switch o := u.Info.Uses[fun].(type) {
		case *types.Func:
			if n := g.NodeOf(o); n != nil {
				return []*Node{n}
			}
		case *types.Var:
			return g.flows[o]
		}
	case *ast.SelectorExpr:
		if sel, ok := u.Info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return nil
				}
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					return g.implementers(iface, fn.Name())
				}
				if n := g.NodeOf(fn); n != nil {
					return []*Node{n}
				}
			case types.FieldVal:
				return g.flows[sel.Obj()]
			}
			return nil
		}
		// Qualified identifier: pkg.Func or pkg.Var.
		switch o := u.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			if n := g.NodeOf(o); n != nil {
				return []*Node{n}
			}
		case *types.Var:
			return g.flows[o]
		}
	}
	return nil
}

// implementers resolves an interface method to every module type whose
// method set satisfies the interface.
func (g *Graph) implementers(iface *types.Interface, method string) []*Node {
	key := implKey{iface, method}
	if ns, ok := g.impls[key]; ok {
		return ns
	}
	ns := []*Node{}
	for _, named := range g.named {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			if n := g.NodeOf(fn); n != nil {
				ns = append(ns, n)
			}
		}
	}
	g.impls[key] = ns
	return ns
}

// unwrap strips parentheses and generic instantiation indices from a
// callee expression.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

// WalkExprs visits the expression operands of one CFG node (or any
// statement) without descending into nested function literal bodies —
// literals are their own graph nodes — or the nested statements of
// composite statements: a range header contributes only its key, value,
// and operand. The visit function follows the ast.Inspect contract.
func WalkExprs(n ast.Node, visit func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		walkShallow(rs.Key, visit)
		walkShallow(rs.Value, visit)
		walkShallow(rs.X, visit)
		return
	}
	walkShallow(n, visit)
}

func walkShallow(n ast.Node, visit func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok {
			visit(c)
			return false
		}
		return visit(c)
	})
}
