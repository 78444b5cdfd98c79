package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"intervaljoin/internal/lint/flow"
)

// LockOrder derives the module's mutex-acquisition graph — which locks
// are taken while which others are held, across function and package
// boundaries — and enforces the canonical acquisition order below. It
// flags re-acquisition of a held lock, any pair of locks taken in both
// orders (a deadlock cycle), any acquisition that contradicts the
// canonical order, and any nesting lock missing from the order (so the
// documented order stays total over the locks that actually nest).
//
// A lock class is a sync.Mutex or sync.RWMutex field of a named struct;
// every instance of the field shares the class, so the analysis is about
// lock *types*, not individual locks. Function-scoped mutexes (a local
// `var mu sync.Mutex` coordinating one function's goroutines) never
// participate in cross-function ordering and are out of scope. Deferred
// unlocks are modeled as "held to function end"; deferred calls into
// other functions contribute their acquisitions to the caller's summary.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "mutex acquisitions must respect the canonical lock order; no lock " +
		"cycles, no re-acquisition, no undocumented nesting locks",
	Run: runLockOrder,
}

// CanonicalLockOrder is the module's documented mutex-acquisition order,
// outermost first: a lock may only be acquired while every already-held
// lock sits strictly earlier in this list. Entries are
// "pkg/path.Type.field" with the package path suffix-matched, so the
// order survives vendoring. Locks that never nest with another lock need
// no entry; the analyzer forces any newly nesting lock to be added here.
var CanonicalLockOrder = []string{
	"internal/cache.Service.mu",
	"internal/cache.Cache.mu",
	"internal/mr.sink.mu",
	"internal/dfs.Mem.mu",
	"internal/obs.Tracer.mu",
}

// lockClass identifies one mutex field of a named struct.
type lockClass struct {
	pkg   string // full package path of the owning type
	typ   string
	field string
}

// id is the class's map key; display is the diagnostic-facing name with
// the module prefix trimmed.
func (c lockClass) id() string { return c.pkg + "." + c.typ + "." + c.field }

func (c lockClass) display() string {
	pkg := c.pkg
	if i := strings.Index(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	return pkg + "." + c.typ + "." + c.field
}

// canonicalIndex returns the class's position in CanonicalLockOrder, or
// -1 when unlisted.
func canonicalIndex(c lockClass) int {
	for i, entry := range CanonicalLockOrder {
		dot := strings.LastIndex(entry, ".")
		if dot < 0 {
			continue
		}
		typDot := strings.LastIndex(entry[:dot], ".")
		if typDot < 0 {
			continue
		}
		pkg, typ, field := entry[:typDot], entry[typDot+1:dot], entry[dot+1:]
		if c.typ == typ && c.field == field && (c.pkg == pkg || hasPathSuffix(c.pkg, pkg)) {
			return i
		}
	}
	return -1
}

// lockEdge records "inner acquired while outer held" at pos. via is the
// callee whose transitive acquisition created the edge, nil for a direct
// Lock call.
type lockEdge struct {
	outer, inner string
	pos          token.Pos
	unit         *flow.Unit
	via          *flow.Node
}

type lockAnalysis struct {
	edges   []lockEdge
	classes map[string]lockClass
	// cyclic[a][b] reports a lock-order cycle through the a→b edge.
	cyclic map[string]map[string]bool
}

func runLockOrder(pass *Pass) {
	a := pass.Flow.Memo("lockorder", func() any {
		return buildLockAnalysis(pass.Flow)
	}).(*lockAnalysis)

	seen := make(map[string]bool)
	for _, e := range a.edges {
		if e.unit != pass.Unit {
			continue
		}
		key := fmt.Sprintf("%d|%s|%s", e.pos, e.outer, e.inner)
		if seen[key] {
			continue
		}
		seen[key] = true
		outer, inner := a.classes[e.outer], a.classes[e.inner]
		via := ""
		if e.via != nil {
			via = " (via call to " + e.via.String() + ")"
		}
		switch {
		case e.outer == e.inner:
			pass.Reportf(e.pos, "lock %s acquired while an instance of it is already held%s: self-deadlock or shard hand-over-hand, neither is allowed",
				inner.display(), via)
		case a.cyclic[e.outer][e.inner]:
			pass.Reportf(e.pos, "lock-order cycle: %s and %s are acquired in both orders%s",
				outer.display(), inner.display(), via)
		default:
			oi, ii := canonicalIndex(outer), canonicalIndex(inner)
			switch {
			case oi >= 0 && ii >= 0 && ii < oi:
				pass.Reportf(e.pos, "lock %s acquired while holding %s, which is later in the canonical lock order%s",
					inner.display(), outer.display(), via)
			case oi < 0 || ii < 0:
				missing := outer
				if ii < 0 {
					missing = inner
				}
				pass.Reportf(e.pos, "lock %s nests with %s but is not in CanonicalLockOrder%s: add it so the order stays total",
					missing.display(), other(outer, inner, missing).display(), via)
			}
		}
	}
}

func other(a, b, not lockClass) lockClass {
	if a == not {
		return b
	}
	return a
}

// buildLockAnalysis computes the module-wide nesting edges once.
func buildLockAnalysis(g *flow.Graph) *lockAnalysis {
	a := &lockAnalysis{classes: make(map[string]lockClass)}

	// Transitive acquisition summaries: acq[n] is every class n may
	// acquire, directly or through synchronous callees (including
	// deferred calls, which run before the caller's caller resumes).
	acq := make(map[*flow.Node]map[string]bool)
	callees := make(map[*flow.Node]map[*flow.Node]bool)
	for _, n := range g.Nodes() {
		acq[n] = make(map[string]bool)
		callees[n] = make(map[*flow.Node]bool)
		n := n
		summaryWalk(n.Body, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			if class, op, ok := lockOp(n.Unit, call); ok {
				if op == lockAcquire {
					a.classes[class.id()] = class
					acq[n][class.id()] = true
				}
				return true
			}
			for _, m := range g.Callees(n.Unit, call) {
				callees[n][m] = true
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for n, ms := range callees {
			for m := range ms {
				for c := range acq[m] {
					if !acq[n][c] {
						acq[n][c] = true
						changed = true
					}
				}
			}
		}
	}

	// Held-set dataflow per function, then edges at acquisition and call
	// sites. Defer and go statements transfer nothing: deferred unlocks
	// keep the lock held to function end, and a spawned goroutine starts
	// with an empty held set (it is its own graph node).
	for _, n := range g.Nodes() {
		n := n
		cfg := g.CFG(n)
		xfer := func(f flow.Facts, node ast.Node) flow.Facts {
			switch node.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				return f
			}
			flow.WalkExprs(node, func(c ast.Node) bool {
				if call, ok := c.(*ast.CallExpr); ok {
					if class, op, ok := lockOp(n.Unit, call); ok {
						if op == lockAcquire {
							f[class.id()] = true
						} else {
							delete(f, class.id())
						}
					}
				}
				return true
			})
			return f
		}
		before := flow.ForwardFacts(cfg, flow.Facts{}, xfer)
		for _, b := range cfg.Blocks {
			for _, node := range b.Nodes {
				switch node.(type) {
				case *ast.DeferStmt, *ast.GoStmt:
					continue
				}
				held := before[node].Clone()
				flow.WalkExprs(node, func(c ast.Node) bool {
					call, ok := c.(*ast.CallExpr)
					if !ok {
						return true
					}
					if class, op, ok := lockOp(n.Unit, call); ok {
						if op == lockAcquire {
							for h := range held {
								a.edges = append(a.edges, lockEdge{outer: h, inner: class.id(), pos: call.Pos(), unit: n.Unit})
							}
							held[class.id()] = true
						} else {
							delete(held, class.id())
						}
						return true
					}
					if len(held) == 0 {
						return true
					}
					for _, m := range g.Callees(n.Unit, call) {
						for c := range acq[m] {
							for h := range held {
								a.edges = append(a.edges, lockEdge{outer: h, inner: c, pos: call.Pos(), unit: n.Unit, via: m})
							}
						}
					}
					return true
				})
			}
		}
	}

	// Cycle detection over the distinct-class nesting digraph: the a→b
	// edge is cyclic when b can reach a.
	adj := make(map[string]map[string]bool)
	for _, e := range a.edges {
		if e.outer == e.inner {
			continue
		}
		if adj[e.outer] == nil {
			adj[e.outer] = make(map[string]bool)
		}
		adj[e.outer][e.inner] = true
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[c] {
				continue
			}
			seen[c] = true
			if c == to {
				return true
			}
			for next := range adj[c] {
				stack = append(stack, next)
			}
		}
		return false
	}
	a.cyclic = make(map[string]map[string]bool)
	for outer, inners := range adj {
		for inner := range inners {
			if reaches(inner, outer) {
				if a.cyclic[outer] == nil {
					a.cyclic[outer] = make(map[string]bool)
				}
				a.cyclic[outer][inner] = true
			}
		}
	}
	return a
}

// summaryWalk visits a body without descending into function literals or
// go statements: literals are their own nodes, and a spawned goroutine's
// acquisitions are not synchronous with the caller.
func summaryWalk(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(c ast.Node) bool {
		switch c.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case nil:
			return false
		}
		return visit(c)
	})
}

const (
	lockAcquire = "acquire"
	lockRelease = "release"
)

// lockOp decides whether call is a Lock/RLock/TryLock (acquire) or
// Unlock/RUnlock (release) on a classifiable mutex: a sync.Mutex or
// sync.RWMutex field of a named struct, selected directly or reached as a
// promoted method of an embedded mutex.
func lockOp(u *flow.Unit, call *ast.CallExpr) (lockClass, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, "", false
	}
	var op string
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = lockAcquire
	case "Unlock", "RUnlock":
		op = lockRelease
	default:
		return lockClass{}, "", false
	}
	fn, ok := u.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockClass{}, "", false
	}
	// Direct field selection: base.field.Lock().
	if xsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
		if fs, ok := u.Info.Selections[xsel]; ok && fs.Kind() == types.FieldVal {
			if owner, field := fieldOwner(fs.Recv(), fs.Index()); field != nil && owner != nil && isSyncMutex(field.Type()) {
				return lockClass{pkg: owner.Obj().Pkg().Path(), typ: owner.Obj().Name(), field: field.Name()}, op, true
			}
		}
		return lockClass{}, "", false
	}
	// Promoted method of an embedded mutex: s.Lock().
	if ms, ok := u.Info.Selections[sel]; ok && len(ms.Index()) > 1 {
		if owner, field := fieldOwner(ms.Recv(), ms.Index()[:len(ms.Index())-1]); field != nil && owner != nil && isSyncMutex(derefType(field.Type())) {
			return lockClass{pkg: owner.Obj().Pkg().Path(), typ: owner.Obj().Name(), field: field.Name()}, op, true
		}
	}
	return lockClass{}, "", false
}

// fieldOwner walks a selection index path and returns the named struct
// owning the final field, with the field itself.
func fieldOwner(recv types.Type, index []int) (*types.Named, *types.Var) {
	t := recv
	var owner *types.Named
	var field *types.Var
	for _, i := range index {
		t = derefType(t)
		named, _ := t.(*types.Named)
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return nil, nil
		}
		owner = named
		field = st.Field(i)
		t = field.Type()
	}
	if owner == nil || field == nil || owner.Obj().Pkg() == nil {
		return nil, nil
	}
	return owner, field
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
