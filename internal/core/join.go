package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// enumerator performs a backtracking multi-way join over an arbitrary subset
// of the query's relations. It is the work-horse of every reduce function
// (each reducer joins the tuples it received) and of the reference oracle.
//
// Relations are bound in the order given at construction; each condition is
// checked as soon as both of its operands are bound, pruning the search.
//
// Construction derives a static plan (per-level sort attribute, condition
// orientation, kernel dispatch) that is immutable afterwards, so one
// enumerator can be shared by concurrent reduce tasks; all per-run state
// lives in the preparedJoin that get returns. Candidate tuples are held in
// columnar form — a relation.Arena per level for payloads plus per-level
// endpoint columns (sweep.go) — so the enumeration loops touch only int64
// columns until an assignment is emitted.
type enumerator struct {
	rels []int // relation indices, in binding order
	pos  map[int]int
	// condsAt[i] lists the conditions checkable once binding position i is
	// filled.
	condsAt [][]query.Condition
	// plans[i] is the compiled form of condsAt[i].
	plans []levelPlan
	// pool recycles preparedJoins (and all their column/window buffers)
	// across the single-shot runs reduce functions issue.
	pool sync.Pool
}

// condEval is a condition compiled for the generic enumeration loop: operand
// positions resolved to binding levels so no map lookups happen per
// candidate.
type condEval struct {
	lLevel, lAttr int
	rLevel, rAttr int
	pred          interval.Predicate
}

// plannedCond is one condition applicable at a binding level, oriented so
// that win is the window of the application p(bound, candidate), which
// bounds the candidate side: partner/battr locate the already-bound operand,
// and onSort reports whether the candidate-side operand is the level's sort
// attribute (only those conditions can prune by endpoint windows).
type plannedCond struct {
	eval    condEval
	partner int
	battr   int
	win     interval.Window
	onSort  bool
}

// levelPlan is the static per-binding-level plan.
type levelPlan struct {
	// sortAttr is the attribute the level's candidate column is sorted by
	// (the first applicable condition's operand attribute; for a level with
	// none, the attribute a later condition reads of it), or -1 when no
	// condition reads the level.
	sortAttr int
	conds    []plannedCond
	// sweep is true when every applicable condition constrains the single
	// sort attribute: the level then uses exact precomputed endpoint
	// windows. Multi-attribute levels (General-class queries) fall back to
	// the generic probe, which handles per-condition attributes.
	sweep bool
	// kernel is the planner's dispatch choice for this level (planner.go).
	kernel kernelKind
}

// newEnumerator prepares an enumerator over the given relation indices using
// exactly those conditions whose operands both lie within rels.
func newEnumerator(conds []query.Condition, rels []int) *enumerator {
	e := &enumerator{
		rels:    rels,
		pos:     make(map[int]int, len(rels)),
		condsAt: make([][]query.Condition, len(rels)),
		plans:   make([]levelPlan, len(rels)),
	}
	for i, r := range rels {
		e.pos[r] = i
	}
	for _, c := range conds {
		li, lok := e.pos[c.Left.Rel]
		ri, rok := e.pos[c.Right.Rel]
		if !lok || !rok {
			continue
		}
		later := li
		if ri > later {
			later = ri
		}
		e.condsAt[later] = append(e.condsAt[later], c)
	}
	for i := range e.rels {
		e.plans[i] = e.compileLevel(i)
	}
	return e
}

// compileLevel builds the static plan for binding level i.
func (e *enumerator) compileLevel(i int) levelPlan {
	lp := levelPlan{sortAttr: -1}
	conds := e.condsAt[i]
	if len(conds) == 0 {
		// A level with no condition of its own — the first — is sorted by
		// the attribute the first later condition on it reads: the windows
		// that condition's level builds per partner then have their bounds
		// in order, and one two-cursor sweep fills them (sweepFromsInto).
		for _, later := range e.condsAt[i+1:] {
			for _, c := range later {
				switch i {
				case e.pos[c.Left.Rel]:
					lp.sortAttr = c.Left.Attr
					return lp
				case e.pos[c.Right.Rel]:
					lp.sortAttr = c.Right.Attr
					return lp
				}
			}
		}
		return lp
	}
	// The level's candidates are sorted by the attribute the first
	// applicable condition constrains.
	first := conds[0]
	if e.pos[first.Left.Rel] == i {
		lp.sortAttr = first.Left.Attr
	} else {
		lp.sortAttr = first.Right.Attr
	}
	lp.sweep = true
	for _, c := range conds {
		pc := plannedCond{
			eval: condEval{
				lLevel: e.pos[c.Left.Rel], lAttr: c.Left.Attr,
				rLevel: e.pos[c.Right.Rel], rAttr: c.Right.Attr,
				pred: c.Pred,
			},
		}
		if e.pos[c.Left.Rel] == i {
			// Candidate is the left operand: p(x, b) == p'(b, x).
			pc.partner = e.pos[c.Right.Rel]
			pc.battr = c.Right.Attr
			pc.win = c.Pred.Inverse().Window()
			pc.onSort = c.Left.Attr == lp.sortAttr
		} else {
			pc.partner = e.pos[c.Left.Rel]
			pc.battr = c.Left.Attr
			pc.win = c.Pred.Window()
			pc.onSort = c.Right.Attr == lp.sortAttr
		}
		if !pc.onSort {
			lp.sweep = false
		}
		lp.conds = append(lp.conds, pc)
	}
	lp.kernel = chooseKernel(lp)
	return lp
}

// preparedJoin carries one run's candidates in struct-of-arrays form: one
// payload arena per level, and the endpoint-sorted gapless columns
// loCol/hiCol/refCol the kernels scan, with their windows.
// A preparedJoin is loaded and sealed by one goroutine; the enumerator it
// came from may be shared. A cursor walks it: cur for run and runWords, or
// one per walker in runSplit, which builds every window first so that the
// walks only read it.
type preparedJoin struct {
	e *enumerator
	// arenas[i] holds level i's candidates in arrival order, a ref being a
	// position within it: a relation the join holds whole is a view of it
	// where it lies when NewContext found it in place (hold). Kernels carry
	// the refs and materialise tuples only at emission.
	arenas []relation.Arena
	// loCol/hiCol[i] are the Start/End columns of level i's sort attribute,
	// sorted by Start; refCol[i] is the parallel payload ref column. For
	// unconstrained levels (sortAttr < 0) the columns are nil and refCol is
	// the refs in arrival order.
	loCol  [][]int64
	hiCol  [][]int64
	refCol [][]int32
	refBuf [][]int32 // owned backing for refCol
	sizes  []int     // load scratch: each level's values and their intervals
	// wins[i][k] is condition k's window table at level i, built on the
	// first visit to level i so candidate sets pruned away by earlier
	// levels never pay for their windows.
	wins    [][]condWindow
	built   []bool
	pairs   []keyIdx // sort scratch: sortKeyIdx's second buffer
	los     []int64  // window-build scratch
	empties []int32  // window-build scratch: partners with empty windows
	last    int      // the level a complete assignment is bound at
	// owner is the owner rule at the reducer, one range a dimension of its
	// space: a complete assignment outside one is another reducer's. Empty
	// when every assignment the reducer enumerates is its own.
	owner []ownerRange
	cur   cursor
}

// cursor is one walk of a sealed preparedJoin's levels: the bindings it
// holds, the first level's candidates it binds, and where its assignments
// go. It writes nothing of the preparedJoin but the windows it finds unbuilt.
type cursor struct {
	p    *preparedJoin
	asg  []relation.Tuple
	idx  []int   // idx[j]: current index of the level-j binding within its column
	bref []int32 // bref[j]: ref of the level-j binding in its level's arena
	// lo and hi bound the first level's candidates the walk binds: the
	// column indices [lo, hi).
	lo, hi int
	fn     func(asg []relation.Tuple) error
	err    error // first error fn returned; stops the enumeration
	// packing, when set, has every complete assignment collected in words
	// as one word, packed as it says; no level materialises a tuple.
	words   *mr.Rows
	packing *rowPacking
	// ranges, in a split walk, are the walker's rows by id range of the
	// first relation, which the first level binds: cuts[k-1] is the least
	// word of range k. Binding a first-level candidate clears words, and
	// the first row the binding completes points it at its range's rows
	// (putWord), so that a candidate with no row costs nothing.
	ranges []mr.Rows
	cuts   []int64
}

// get returns an empty pooled preparedJoin ready for hold, load or
// addTuple calls.
func (e *enumerator) get() *preparedJoin {
	p, _ := e.pool.Get().(*preparedJoin)
	return e.reset(p)
}

// reset empties p for e, or makes an empty preparedJoin when p is nil.
func (e *enumerator) reset(p *preparedJoin) *preparedJoin {
	if p == nil {
		p = &preparedJoin{e: e}
	}
	p.arenas = sized(p.arenas, len(e.rels))
	for i := range p.arenas {
		p.arenas[i].Reset()
	}
	p.owner = p.owner[:0]
	return p
}

// put recycles the prepared state.
func (e *enumerator) put(p *preparedJoin) { e.pool.Put(p) }

// addTuple copies an in-memory tuple into level's arena (the compatibility
// path for callers that already hold decoded tuples).
func (p *preparedJoin) addTuple(level int, t relation.Tuple) {
	p.arenas[level].Append(t)
}

// hold makes level's candidates relation rel of c, entire: a view of it
// where it lies when NewContext found it in place (relation.Facts), a copy
// of its tuples otherwise.
func (p *preparedJoin) hold(level int, c *Context, rel int) {
	if f := &c.facts[rel]; f.InPlace {
		p.arenas[level] = f.View
		return
	}
	r := c.Rels[rel]
	a := &p.arenas[level]
	a.Grow(r.Len(), r.Len()*r.Schema.Arity())
	for _, t := range r.Tuples {
		a.Append(t)
	}
}

// seal freezes the candidate sets into the columnar layout: each
// constrained level's refs are sorted by the sort attribute's start and
// gathered into gapless lo/hi/ref columns. The lo and ref columns are
// filled in arrival order and sorted in place as (start, ref) pairs by radix
// (sortKeyIdx), then the hi column is gathered once, which is markedly
// cheaper than sorting tuple structs.
func (p *preparedJoin) seal() {
	n := len(p.e.rels)
	p.loCol = sized(p.loCol, n)
	p.hiCol = sized(p.hiCol, n)
	p.refCol = sized(p.refCol, n)
	p.refBuf = sized(p.refBuf, n)
	p.wins = sized(p.wins, n)
	p.built = sized(p.built, n)
	p.cur.p = p
	p.cur.asg = sized(p.cur.asg, n)
	p.cur.idx = sized(p.cur.idx, n)
	p.cur.bref = sized(p.cur.bref, n)
	p.last = n - 1
	// The sort's buffer is sized for the longest sorted level at once.
	most := 0
	for i := range n {
		if p.e.plans[i].sortAttr >= 0 {
			most = max(most, p.arenas[i].Len())
		}
	}
	p.pairs = sized(p.pairs, most)
	for i := 0; i < n; i++ {
		p.built[i] = false
		a := &p.arenas[i]
		attr := p.e.plans[i].sortAttr
		refs := sized(p.refBuf[i], a.Len())
		p.refBuf[i], p.refCol[i] = refs, refs
		if attr < 0 {
			for k := range refs {
				refs[k] = int32(k)
			}
			p.loCol[i] = nil
			p.hiCol[i] = nil
			continue
		}
		lo := sized(p.loCol[i], len(refs))
		hi := sized(p.hiCol[i], len(refs))
		for k := range refs {
			lo[k], refs[k] = a.Start(int32(k), attr), int32(k)
		}
		sortKeyIdx(lo, refs, p.pairs)
		for k, ref := range refs {
			hi[k] = a.End(ref, attr)
		}
		p.loCol[i] = lo
		p.hiCol[i] = hi
	}
}

// buildWindows runs the endpoint sweeps for level i: one window table per
// applicable condition, each mapping a partner tuple to the exact candidate
// window its predicate admits (interval.Window). Partners whose window is
// empty (saturated strict bounds) get their from patched past the end of
// the column, which the max-of-froms intersection in rec turns into an
// empty scan.
func (p *preparedJoin) buildWindows(i int) {
	lp := &p.e.plans[i]
	nCand := int32(len(p.loCol[i]))
	p.wins[i] = sized(p.wins[i], len(lp.conds))
	for k := range lp.conds {
		c := &lp.conds[k]
		w := &p.wins[i][k]
		prefs := p.refCol[c.partner]
		nt := len(prefs)
		sHi, eLo, eHi := c.win.Shape()
		w.sHi = windCol(w.sHi, nt, sHi)
		w.eLo = windCol(w.eLo, nt, eLo)
		w.eHi = windCol(w.eHi, nt, eHi)
		p.los = sized(p.los, nt)
		p.empties = p.empties[:0]
		// When the condition reads the partner's own sort attribute, the
		// bound interval comes straight off the partner's endpoint columns.
		pOnCols := p.loCol[c.partner] != nil && p.e.plans[c.partner].sortAttr == c.battr
		for t := 0; t < nt; t++ {
			var b interval.Interval
			if pOnCols {
				b = interval.Interval{Start: p.loCol[c.partner][t], End: p.hiCol[c.partner][t]}
			} else {
				b = p.arenas[c.partner].Attr(prefs[t], c.battr)
			}
			sLo, sHi, eLo, eHi, ok := c.win.At(b)
			if !ok {
				p.los[t] = math.MaxInt64
				p.empties = append(p.empties, int32(t))
				continue
			}
			p.los[t] = sLo
			if w.sHi != nil {
				w.sHi[t] = sHi
			}
			if w.eLo != nil {
				w.eLo[t] = eLo
			}
			if w.eHi != nil {
				w.eHi[t] = eHi
			}
		}
		w.from = sized(w.from, nt)
		sweepFromsInto(w.from, p.los, p.loCol[i])
		for _, t := range p.empties {
			w.from[t] = nCand
		}
	}
	p.built[i] = true
}

// windCol sizes a window bound column, or drops it when the predicate's
// shape leaves that edge unbounded.
func windCol(s []int64, n int, need bool) []int64 {
	if !need {
		return nil
	}
	return sized(s, n)
}

// run enumerates every assignment (one tuple per relation, from the sealed
// candidate columns) satisfying all applicable conditions and the owner
// rule, invoking fn with the assignment parallel to rels. fn must not retain
// asg (its tuples alias the arenas). An error from fn stops the enumeration —
// no further assignment is visited — and is returned. run may be called
// repeatedly; the sorted columns and sweep windows are reused.
func (p *preparedJoin) run(fn func(asg []relation.Tuple) error) error {
	c := &p.cur
	c.lo, c.hi, c.fn = 0, len(p.refCol[0]), fn
	c.rec(0)
	err := c.err
	c.fn, c.err = nil, nil
	return err
}

// runWords enumerates what run does and collects each assignment in out as
// one word instead, packed as packing says. The last level writes it
// (putWord); no level materialises a tuple and nothing is called back.
func (p *preparedJoin) runWords(out *mr.Rows, packing *rowPacking) {
	c := &p.cur
	c.lo, c.hi, c.words, c.packing = 0, len(p.refCol[0]), out, packing
	c.rec(0)
	c.words, c.packing = nil, nil
}

// runSplit enumerates what runWords does on the caller and up to
// s.workers−1 helper goroutines, and files every row under its first
// relation's id range: walker g collects the rows of range k in
// rows[g*s.ranges+k], cuts[k-1] being the least word of range k — the
// packed form of its least id, idCuts' cut — so that each range's rows make
// one stretch of the ordered result (Result.setRanges). The first level's
// candidates, in start order, are cut into s.stretches contiguous stretches
// of about equal length: every row binds one first-level candidate, so each
// lies in one stretch and no rule of ownership is needed, and a stretch of
// candidates is a stretch of the line, whose windows lie close together. The walkers take the stretches in turn
// from a shared counter (spread), so that a slow stretch does not hold up the
// rest and a helper that starts late costs only the stretch it takes. Each
// walker has its own cursor and rows; with more than one, every window is
// built first, so that the walks only read the preparedJoin.
func (p *preparedJoin) runSplit(rows []mr.Rows, cuts []int64, packing *rowPacking, s inLineSplit) {
	walkers, n, levels := len(rows)/s.ranges, len(p.refCol[0]), len(p.e.rels)
	if walkers > 1 {
		for i := range p.e.plans {
			if p.e.plans[i].kernel == kindSweep && !p.built[i] {
				p.buildWindows(i)
			}
		}
	}
	// One walker walks with the preparedJoin's own cursor. Several each
	// take a new one, which with its idx and bref, written on every
	// candidate, has its cache lines to itself (apart): the preparedJoin's
	// lie among the columns and flags every walker reads on every candidate.
	cursors := make([]*cursor, walkers)
	for g := range cursors {
		c := &p.cur
		if walkers > 1 {
			c = &apart[cursor](1)[0]
			c.p, c.asg, c.idx, c.bref = p, make([]relation.Tuple, levels), apart[int](levels), apart[int32](levels)
		}
		c.packing, c.cuts, c.ranges = packing, cuts, rows[g*s.ranges:(g+1)*s.ranges]
		c.words = &c.ranges[0]
		cursors[g] = c
	}
	spread(s.stretches, walkers, func(g, k int) {
		c := cursors[g]
		c.lo, c.hi = k*n/s.stretches, (k+1)*n/s.stretches
		c.rec(0)
	})
	p.cur.words, p.cur.packing, p.cur.ranges, p.cur.cuts = nil, nil, nil, nil
}

// spread calls do(g, k) for every k in [0, n): on the caller as g = 0 and on
// up to workers−1 helper goroutines as g = 1, 2, …, each taking the next k
// from a shared counter until none is left, and returns when every call has.
// It waits for the calls, not for the helpers: one that starts after the
// caller has taken what was left finds nothing and ends, and the caller does
// not wait for it to wake, which on a small join can take longer than the
// join.
func spread(n, workers int, do func(g, k int)) {
	var next atomic.Int64
	var calls sync.WaitGroup
	calls.Add(n)
	take := func(g int) {
		for k := int(next.Add(1)) - 1; k < n; k = int(next.Add(1)) - 1 {
			do(g, k)
			calls.Done()
		}
	}
	for g := 1; g < min(workers, n); g++ {
		go take(g)
	}
	take(0)
	calls.Wait()
}

// cacheLine is the span of memory a core takes whole to write to: two
// goroutines that write within one line pass it between their cores on every
// write, and each runs at the speed of the passing.
const cacheLine = 64

// apart returns n zero Ts with a cache line to themselves on either side, for
// one goroutine to write on every candidate — a cursor, its idx and bref —
// with no other goroutine's data on their lines. Made side by side, two
// cursors' few bytes each would share one.
func apart[T any](n int) []T {
	var t T
	size := int(unsafe.Sizeof(t))
	pad := (cacheLine + size - 1) / size
	return make([]T, pad+n+pad)[pad : pad+n : pad+n]
}

// levelAttr is a vertex of a reducer's space by binding level.
type levelAttr struct{ level, attr int }

// ownerRange is the owner rule along one dimension at one reducer: an
// assignment is the reducer's when the maximal start among the dimension's
// vertices lies in [lo, hi], the reducer's partition (dimension.span).
type ownerRange struct {
	verts  []levelAttr
	lo, hi int64
}

// owned applies the owner rule to the complete assignment the levels bind.
func (c *cursor) owned() bool {
	p := c.p
	for d := range p.owner {
		o := &p.owner[d]
		start := int64(math.MinInt64)
		for _, v := range o.verts {
			start = max(start, p.arenas[v.level].Start(c.bref[v.level], v.attr))
		}
		if start < o.lo || start > o.hi {
			return false
		}
	}
	return true
}

// putWord collects the complete assignment the levels bind as one word, if
// the reducer owns it.
func (c *cursor) putWord() {
	if !c.owned() {
		return
	}
	p := c.p
	var word int64
	for j, rel := range p.e.rels {
		word |= c.packing.place(rel, p.arenas[j].ID(c.bref[j]))
	}
	if c.words == nil {
		c.words = &c.ranges[idRange(c.cuts, word)]
	}
	c.words.Append()[0] = word
}

func (c *cursor) rec(i int) {
	if c.err != nil {
		return
	}
	if i == len(c.asg) {
		// Each level materialised its binding when the candidate was
		// accepted, so the full assignment is already in place.
		if !c.owned() {
			return
		}
		if err := c.fn(c.asg); err != nil {
			c.err = err
		}
		return
	}
	p := c.p
	lp := &p.e.plans[i]
	if lp.kernel == kindSweep {
		// Intersect the precomputed per-partner windows across the level's
		// conditions; everything below this point reads only int64 columns.
		if !p.built[i] {
			p.buildWindows(i)
		}
		from := 0
		sHi := int64(math.MaxInt64)
		eLo := int64(math.MinInt64)
		eHi := int64(math.MaxInt64)
		wins := p.wins[i]
		for k := range lp.conds {
			w := &wins[k]
			t := c.idx[lp.conds[k].partner]
			if f := int(w.from[t]); f > from {
				from = f
			}
			if w.sHi != nil && w.sHi[t] < sHi {
				sHi = w.sHi[t]
			}
			if w.eLo != nil && w.eLo[t] > eLo {
				eLo = w.eLo[t]
			}
			if w.eHi != nil && w.eHi[t] < eHi {
				eHi = w.eHi[t]
			}
		}
		c.kernelSweep(i, from, sHi, eLo, eHi)
		return
	}
	c.kernelGeneric(i)
}

// kernelGeneric is the fallback enumeration loop: multi-attribute levels
// (General-class queries), whose conditions constrain attributes other than
// the sort attribute, and condition-free levels. It intersects the start
// windows the sort-attribute conditions impose (interval.Window),
// binary-searches the scan start, and evaluates every condition per
// candidate — reading all attributes through the arena, never through tuple
// structs. The first level has no condition and always runs here: it scans
// the cursor's stretch.
func (c *cursor) kernelGeneric(i int) {
	p := c.p
	lp := &p.e.plans[i]
	refs := p.refCol[i]
	col := p.loCol[i] // nil only for unconstrained levels, where hiBound stays +inf
	tuples, leaf := c.packing == nil, c.packing != nil && i == p.last
	from, to := 0, len(refs)
	if i == 0 {
		from, to = c.lo, c.hi
	}
	hiBound := int64(math.MaxInt64)
	if lp.sortAttr >= 0 {
		lo := int64(math.MinInt64)
		for k := range lp.conds {
			pc := &lp.conds[k]
			if !pc.onSort {
				continue
			}
			sLo, sHi, _, _, ok := pc.win.At(p.arenas[pc.partner].Attr(c.bref[pc.partner], pc.battr))
			if !ok {
				return
			}
			lo, hiBound = max(lo, sLo), min(hiBound, sHi)
		}
		if lo > hiBound {
			return
		}
		if lo > math.MinInt64 {
			from = sort.Search(len(col), func(k int) bool { return col[k] >= lo })
		}
	}
next:
	for k := from; k < to; k++ {
		if col != nil && col[k] > hiBound {
			break
		}
		c.bref[i] = refs[k]
		c.idx[i] = k
		if i == 0 && c.cuts != nil {
			c.words = nil
		}
		for _, pc := range lp.conds {
			u := p.arenas[pc.eval.lLevel].Attr(c.bref[pc.eval.lLevel], pc.eval.lAttr)
			v := p.arenas[pc.eval.rLevel].Attr(c.bref[pc.eval.rLevel], pc.eval.rAttr)
			if !pc.eval.pred.Eval(u, v) {
				continue next
			}
		}
		if leaf {
			c.putWord()
			continue
		}
		if tuples {
			c.asg[i] = p.arenas[i].Tuple(refs[k])
		}
		c.rec(i + 1)
	}
}

// run loads cands and enumerates once — the single-shot form used by
// callers that already hold decoded tuples (the reference oracle, tests).
// An error from fn stops the enumeration and is returned. The prepared
// state comes from a pool, so steady-state runs allocate nothing beyond
// arena growth.
func (e *enumerator) run(cands [][]relation.Tuple, fn func(asg []relation.Tuple) error) error {
	if len(cands) != len(e.rels) {
		panic("core: enumerator candidate arity mismatch")
	}
	p := e.get()
	for i := range cands {
		for _, t := range cands[i] {
			p.addTuple(i, t)
		}
	}
	p.seal()
	err := p.run(fn)
	e.put(p)
	return err
}

// load is the reduce-side fast path: decode each tagged value once, straight
// into its level's arena, and seal. lvl maps a relation tag to its binding
// level (-1 for tags the enumerator does not bind); tags outside lvl are an
// error, as reducers only ever receive the relations their job routed to
// them. A level the caller made hold a relation whole (a relation the
// planner broadcast, broadcastSmall) receives no values.
func (p *preparedJoin) load(values []string, lvl []int) error {
	// A counting pass reserves each level's arena at its size: the values
	// tagged for it and the intervals they hold, by their headers.
	n := len(p.arenas)
	p.sizes = sized(p.sizes, 2*n)
	clear(p.sizes)
	for _, v := range values {
		if len(v) >= headerLen && int(v[0]) < len(lvl) && lvl[v[0]] >= 0 {
			p.sizes[lvl[v[0]]]++
			p.sizes[n+lvl[v[0]]] += int(v[1])
		}
	}
	for i := range p.arenas {
		if p.sizes[i] > 0 {
			p.arenas[i].Grow(p.sizes[i], p.sizes[n+i])
		}
	}
	for _, v := range values {
		rel, body, err := splitTagged(v)
		if err != nil {
			return err
		}
		if rel >= len(lvl) || lvl[rel] < 0 {
			return fmt.Errorf("core: unexpected relation tag %d in %q", rel, v)
		}
		if _, err := p.arenas[lvl[rel]].AppendBinary(body); err != nil {
			return err
		}
	}
	p.seal()
	return nil
}

// semijoinReduce prunes each candidate list to tuples that have at least one
// partner under every incident condition, iterating to a fixpoint. For an
// acyclic condition graph the surviving tuples are exactly those that
// participate in some satisfying assignment; for cyclic graphs the result is
// a superset (safe for RCCIS: replicating extra intervals never loses
// output, it only costs communication). All paper queries are acyclic.
//
// Partner search uses the same sweep kernel as the enumerator: one endpoint
// sweep per pruning pass computes every tuple's candidate window into the
// partner list (sorted by the condition's attribute start), so each
// existence check is a bounded scan of its precomputed window rather than a
// fresh binary search.
//
// conds must only mention relations in rels. cands is parallel to rels and
// is not modified; the pruned lists are returned, each in the order of the
// list it was pruned from. If any list empties, all returned lists are empty
// (no assignment exists).
func semijoinReduce(conds []query.Condition, rels []int, cands [][]relation.Tuple) [][]relation.Tuple {
	pos := make(map[int]int, len(rels))
	for i, r := range rels {
		pos[r] = i
	}
	cur := make([][]relation.Tuple, len(cands))
	for i := range cands {
		cur[i] = cands[i]
	}
	// side prunes relPos against otherPos: a tuple u survives if some v in
	// the other list satisfies the condition with u on side "uIsLeft".
	type side struct {
		relPos, attr        int
		otherPos, otherAttr int
		pred                interval.Predicate
		uIsLeft             bool
	}
	var sides []side
	for _, c := range conds {
		li, lok := pos[c.Left.Rel]
		ri, rok := pos[c.Right.Rel]
		if !lok || !rok {
			continue
		}
		sides = append(sides,
			side{li, c.Left.Attr, ri, c.Right.Attr, c.Pred, true},
			side{ri, c.Right.Attr, li, c.Left.Attr, c.Pred, false})
	}
	// sortedByStart caches, per (relPos, attr), the current list's endpoint
	// columns sorted by start — the survival scan below never touches the
	// tuples themselves; invalidated when the list shrinks.
	type sortedList struct {
		starts []int64
		ends   []int64
	}
	sortCache := make(map[[2]int]sortedList)
	// The positions and the sort's second buffer serve every list in turn.
	var order []int32
	var scratch []keyIdx
	sortedByStart := func(relPos, attr int) sortedList {
		key := [2]int{relPos, attr}
		if s, ok := sortCache[key]; ok {
			return s
		}
		src := cur[relPos]
		s := sortedList{
			starts: make([]int64, len(src)),
			ends:   make([]int64, len(src)),
		}
		order, scratch = sized(order, len(src)), sized(scratch, len(src))
		for k := range src {
			s.starts[k], order[k] = src[k].Attrs[attr].Start, int32(k)
		}
		sortKeyIdx(s.starts, order, scratch)
		for k, i := range order {
			s.ends[k] = src[i].Attrs[attr].End
		}
		sortCache[key] = s
		return s
	}
	invalidate := func(relPos int) {
		for key := range sortCache {
			if key[0] == relPos {
				delete(sortCache, key)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sides {
			src := cur[s.relPos]
			if len(src) == 0 {
				continue
			}
			sorted := sortedByStart(s.otherPos, s.otherAttr)
			// Exact partner windows from the application with u bound:
			// p(u, x) when u is the left operand, p'(u, x) otherwise —
			// interval.Window makes the survival scan a pure column test.
			p := s.pred
			if !s.uIsLeft {
				p = p.Inverse()
			}
			win := p.Window()
			los := make([]int64, len(src))
			shi := make([]int64, len(src))
			elo := make([]int64, len(src))
			ehi := make([]int64, len(src))
			for ui := range src {
				sLo, sHi, eLo, eHi, ok := win.At(src[ui].Attrs[s.attr])
				if !ok {
					los[ui], shi[ui] = math.MaxInt64, math.MinInt64
					continue
				}
				los[ui], shi[ui], elo[ui], ehi[ui] = sLo, sHi, eLo, eHi
			}
			froms := sweepFroms(los, sorted.starts)
			kept := src[:0:0]
			for ui, u := range src {
				if kernelSemijoin(sorted.starts, sorted.ends, int(froms[ui]), shi[ui], elo[ui], ehi[ui]) {
					kept = append(kept, u)
				}
			}
			if len(kept) != len(src) {
				cur[s.relPos] = kept
				invalidate(s.relPos)
				changed = true
			}
		}
	}
	for i := range cur {
		if len(cur[i]) == 0 {
			empty := make([][]relation.Tuple, len(cur))
			for j := range empty {
				empty[j] = nil
			}
			return empty
		}
	}
	return cur
}
