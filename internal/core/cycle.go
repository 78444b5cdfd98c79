package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// The three cycle kinds. The paper defines every MR cycle the same way: each
// relation is Projected, Split or Replicated over a partitioning, the
// reducers form a space of consistent cells, and one rule makes every output
// appear exactly once. The drivers differ only in the parameters, so the
// cycles are built here, once: mark (the RCCIS marking, Section 6.1),
// cell-join (route, enumerate, apply the owner rule, emit) and bind-step
// (partial assignments × one novel relation, Section 4's strategies). A
// driver's stages method picks dimensions, vertex groups, order constraints
// and per-relation operations and returns the jobs.

// dimension is one axis of a cycle's reducer space: the partitioning that
// cuts it and the join-graph vertices — (relation, attribute) pairs — whose
// intervals are laid along it.
type dimension struct {
	part  interval.Partitioning
	verts []query.Operand
	// reach is how far past its end a vertex split along the dimension is
	// sent: far enough to meet every row it is in at the row's owner
	// partition when the planner joins without marking (reachJoin); 0
	// otherwise.
	reach interval.Point
}

// apply is the partitions op sends iv to along the dimension. A split reaches
// the dimension's reach past the interval's end; the partitioning clamps an
// end past its range.
func (d *dimension) apply(op interval.Op, iv interval.Interval) (first, last int) {
	if op == interval.OpSplit && d.reach > 0 {
		if iv.End > math.MaxInt64-d.reach {
			iv.End = math.MaxInt64
		} else {
			iv.End += d.reach
		}
	}
	return d.part.Apply(op, iv)
}

// owner is the exactly-once rule along one dimension: an assignment belongs
// to the partition in which the right-most interval — the maximal start —
// among the dimension's vertices starts. lvl maps a relation to its position
// in asg.
func (d *dimension) owner(asg []relation.Tuple, lvl []int) int {
	maxStart := interval.Point(math.MinInt64)
	for _, v := range d.verts {
		if s := asg[lvl[v.Rel]].Attrs[v.Attr].Start; s > maxStart {
			maxStart = s
		}
	}
	return d.part.IndexOf(maxStart)
}

// span is partition c of the dimension as the owner rule reads it: the
// starts IndexOf maps to c, the first partition open below and the last open
// above, as IndexOf's clamping makes them.
func (d *dimension) span(c int) (lo, hi interval.Point) {
	iv := d.part.PartitionInterval(c)
	lo, hi = iv.Start, iv.End
	if c == 0 {
		lo = math.MinInt64
	}
	if c == d.part.Len()-1 {
		hi = math.MaxInt64
	}
	return lo, hi
}

// vertexAt locates one vertex of a relation in a space.
type vertexAt struct{ dim, attr int }

// space is a cycle's reducer space over a list of dimensions: either their
// product — the grid of cells consistent with the order constraints among
// dimensions (Sections 7-9) — or their union — one line of partitions per
// dimension, dimension k owning the keys [k*stride, (k+1)*stride). The
// one-dimensional algorithms are the union of a single dimension, optionally
// laid out by a skew-adaptive plan; the per-component cycles run every
// component's line in one job.
type space struct {
	dims    []dimension
	product bool
	g       grid.Grid
	// cells are the product's consistent cells, walked per record; free is
	// the grid's unconstrained bounds, the start of every record's.
	cells  grid.Cells
	free   []grid.Bound
	stride int64
	plan   *execPlan
	// at[rel] lists where the relation's vertices lie, by (dimension,
	// attribute) — the order of the ops that route its tuples.
	at [][]vertexAt
	// whole lists, in index order, the relations a product's reducers each
	// hold entire instead of receiving them along a dimension (planner.go,
	// broadcastSmall): they have no vertex in the space and are never mapped.
	whole []int
}

func (c *Context) newSpace(dims []dimension) *space {
	sp := &space{dims: dims, at: make([][]vertexAt, len(c.Rels))}
	for k, d := range dims {
		sp.stride = max(sp.stride, int64(d.part.Len()))
		for _, v := range d.verts {
			sp.at[v.Rel] = append(sp.at[v.Rel], vertexAt{dim: k, attr: v.Attr})
		}
	}
	return sp
}

// union lays the dimensions side by side. plan, when set, is the adaptive
// key layout of the single dimension.
func (c *Context) union(plan *execPlan, dims ...dimension) *space {
	sp := c.newSpace(dims)
	sp.plan = plan
	return sp
}

// product spans the grid of the dimensions' partitions; only cells
// satisfying cons ever receive data.
func (c *Context) product(dims []dimension, cons []grid.Less) (*space, error) {
	g, err := gridOf(dims)
	if err != nil {
		return nil, err
	}
	sp := c.newSpace(dims)
	sp.product, sp.g, sp.cells, sp.free = true, g, g.Cells(cons), g.FreeBounds()
	return sp, nil
}

// gridOf is the grid of the dimensions' partitions.
func gridOf(dims []dimension) (grid.Grid, error) {
	sizes := make([]int, len(dims))
	for k, d := range dims {
		sizes[k] = d.part.Len()
	}
	return grid.New(sizes)
}

// relInput is relation ri as a map input: the positions of its tuples in
// Rels, tagged with the relation's index. ok is false for an empty relation,
// which is no input at all.
func (c *Context) relInput(ri int) (in mr.Input, ok bool) {
	return mr.Input{Tag: ri, Count: c.Rels[ri].Len()}, c.Rels[ri].Len() > 0
}

// baseInputs is the input of every relation with a vertex in the space.
func (c *Context) baseInputs(sp *space) []mr.Input {
	var inputs []mr.Input
	for ri, at := range sp.at {
		if in, ok := c.relInput(ri); ok && len(at) > 0 {
			inputs = append(inputs, in)
		}
	}
	return inputs
}

// route sends value — a record of relation rel carrying tuple t — to the
// reducers its vertices address: vertex i of the relation is projected,
// split or replicated along its dimension as ops[i] says (dimension.apply),
// and in a product every other dimension is free. nil ops leave every
// dimension free (All-Matrix's broadcast ablation). stream is the record's
// input stream in the adaptive plan's cell cover.
func (sp *space) route(emit mr.Emitter, rel int, t relation.Tuple, ops []interval.Op, stream int, value string) {
	if sp.product {
		// The bounds live on the stack for every grid a driver builds, and
		// the walk allocates nothing: routing a record costs no object.
		var room [8]grid.Bound
		bounds := append(room[:0], sp.free...)
		if ops != nil {
			for i, v := range sp.at[rel] {
				first, last := sp.dims[v.dim].apply(ops[i], t.Attrs[v.attr])
				bounds[v.dim] = grid.Bound{Min: first, Max: last}
			}
		}
		sp.cells.Runs(bounds, func(lo, hi int64) { emit.EmitRange(lo, hi, value) })
		return
	}
	for i, v := range sp.at[rel] {
		first, last := sp.dims[v.dim].apply(ops[i], t.Attrs[v.attr])
		if sp.plan != nil {
			// Split partitions expand to the record's cell-cover rows.
			sp.plan.emitRange(emit, first, last, stream, value)
			continue
		}
		base := int64(v.dim) * sp.stride
		emit.EmitRange(base+int64(first), base+int64(last), value)
	}
}

// locate decodes a reduce key: the first dimension the reducer sits on and
// its partition index along each of its dimensions — all of them in a
// product, the one line in a union.
func (sp *space) locate(key int64) (k int, coord []int) {
	switch {
	case sp.product:
		return 0, sp.g.Coord(key, nil)
	case sp.plan != nil:
		return 0, []int{sp.plan.partitionOf(key)}
	}
	return int(key / sp.stride), []int{int(key % sp.stride)}
}

// baseMap is the one map-side path over base relations (tag = relation
// index, position = index into the relation's tuples): the tuple is routed
// into the space in the tagged form the reducers parse. ops[rel] applies to
// every vertex of the relation, nil ops broadcast.
func (c *Context) baseMap(sp *space, ops []interval.Op) mr.PosMapFunc {
	perVertex := make([][]interval.Op, len(sp.at))
	for rel, op := range ops {
		for range sp.at[rel] {
			perVertex[rel] = append(perVertex[rel], op)
		}
	}
	return func(tag, pos int, emit mr.Emitter) error {
		sp.route(emit, tag, c.Rels[tag].Tuples[pos], perVertex[tag], tag, c.tagged(tag, pos))
		return nil
	}
}

// marking is a mark cycle's decisions, held as id sets for the cycles that
// map the base relations after it (markedMap): marking[rel][attr] holds the
// ids of relation rel's tuples to replicate along the dimension of the
// vertex (rel, attr). The mark cycle's tap fills it as the vertex flags leave
// the cycle (vertexFlagTap) — Hadoop would publish it through the
// distributed cache — so every cycle that reads it comes after a barrier.
type marking [][]map[int64]bool

// newMarking is an empty marking over the context's relations.
func (c *Context) newMarking() marking {
	m := make(marking, len(c.Rels))
	for rel, r := range c.Rels {
		m[rel] = make([]map[int64]bool, r.Schema.Arity())
	}
	return m
}

// flag marks vertex (rel, attr) of tuple id for replication, and reports
// whether no vertex of the tuple was marked before.
func (m marking) flag(rel, attr int, id int64) (first bool) {
	first = !slices.ContainsFunc(m[rel], func(ids map[int64]bool) bool { return ids[id] })
	if m[rel][attr] == nil {
		m[rel][attr] = make(map[int64]bool)
	}
	m[rel][attr][id] = true
	return first
}

// markedMap is the one map-side path of a cycle after a mark cycle: a tuple
// listed in pruned (nil when no cycle prunes) is dropped, and every vertex of
// the others is replicated along its dimension when marked flags it and
// projected otherwise (RCCIS cycle 2, condition E2). The reducers receive the
// tagged tuple.
func (c *Context) markedMap(sp *space, marked marking, pruned []map[int64]bool) mr.PosMapFunc {
	return func(tag, pos int, emit mr.Emitter) error {
		t := c.Rels[tag].Tuples[pos]
		if tag < len(pruned) && pruned[tag][t.ID] {
			return nil
		}
		var buf [4]interval.Op
		ops := buf[:0]
		for _, v := range sp.at[tag] {
			op := interval.OpProject
			if marked[tag][v.attr][t.ID] {
				op = interval.OpReplicate
			}
			ops = append(ops, op)
		}
		sp.route(emit, tag, t, ops, tag, c.tagged(tag, pos))
		return nil
	}
}

// condsWithin returns the colocation conditions among verts — the sub-query
// a dimension's vertices encapsulate.
func condsWithin(q *query.Query, verts []query.Operand) []query.Condition {
	var conds []query.Condition
	for _, c := range q.Conds {
		if c.Pred.IsColocation() && slices.Contains(verts, c.Left) && slices.Contains(verts, c.Right) {
			conds = append(conds, c)
		}
	}
	return conds
}

// multiVertex lays side by side the dimensions of two or more vertices, at
// their indices in dims, each with the colocation conditions among its
// vertices. A lone vertex is in no crossing set (Section 5.3): a mark or
// prune cycle can decide nothing about it, and maps none of its tuples.
func (c *Context) multiVertex(dims []dimension) (*space, [][]query.Condition) {
	multi := slices.Clone(dims)
	conds := make([][]query.Condition, len(dims))
	for k, d := range dims {
		conds[k] = condsWithin(c.Query, d.verts)
		if len(d.verts) < 2 {
			multi[k].verts = nil
		}
	}
	return c.union(nil, multi...), conds
}

// markStage builds a mark cycle — the RCCIS marking of Section 6.1, run per
// dimension of two or more vertices (multiVertex): every relation is split
// along the dimensions its vertices lie on, and the reducer of partition p
// decides which of the intervals starting in p must be replicated: exactly
// those that belong to some interval-set that is (C1) consistent and (C2)
// crosses p (markCrossingParticipants). It writes a vertex flag for each of
// them and nothing for the rest, and the flags leave the cycle through its
// tap, which records them in marked and counts each tuple with a flagged
// vertex once into replicated. The cycle names no output: the cycles after it
// map the base relations and read the marking (markedMap).
//
// The cycle keeps the plain one-key-per-partition layout even when the join
// cycle runs on an adaptive plan: the reducer needs every tuple split onto a
// partition in one place to decide crossing-set membership.
func (c *Context) markStage(dims []dimension, marked marking, replicated *int64) mr.Stage {
	sp, conds := c.multiVertex(dims)
	split := make([]interval.Op, len(c.Rels))
	for rel := range split {
		split[rel] = interval.OpSplit
	}
	job := mr.Job{
		Name:   "mark",
		Inputs: c.baseInputs(sp),
		MapAt:  c.baseMap(sp, split),
		Reduce: func(key int64, values []string, write func(string) error) error {
			k, coord := sp.locate(key)
			d, p := sp.dims[k], coord[0]
			cands, err := c.candidates(values)
			if err != nil {
				return err
			}
			replicate := markCrossingParticipants(conds[k], d.part, p, d.verts, cands)
			var out recordSlab
			for _, v := range d.verts {
				for i, t := range cands[v.Rel] {
					if !replicate[v.Rel][i] || d.part.IndexOf(t.Attrs[v.Attr].Start) != p {
						continue
					}
					var buf [vertexFlagLen]byte
					out.room(len(buf))
					out.put(appendVertexFlag(buf[:0], v.Rel, v.Attr, t.ID))
					if err := write(out.cut()); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
	return mr.Stage{Job: job, Tap: vertexFlagTap(replicated, marked)}
}

// candidates decodes a mark or prune reducer's tagged records into one
// candidate list per relation. A counting pass over the headers sizes
// everything the call builds, so nothing below grows: the lists are cut from
// one array of the value list's length, over one flat interval column
// instead of one Attrs slice per record.
func (c *Context) candidates(values []string) ([][]relation.Tuple, error) {
	counts := make([]int, len(c.Rels))
	attrs := 0
	for _, v := range values {
		if len(v) < headerLen || int(v[0]) >= len(counts) {
			return nil, fmt.Errorf("core: record %q names no relation of the query", v)
		}
		counts[v[0]]++
		attrs += int(v[1])
	}
	cands, tuples := make([][]relation.Tuple, len(counts)), make([]relation.Tuple, len(values))
	for rel, n := range counts {
		cands[rel], tuples = tuples[:0:n], tuples[n:]
	}
	slab := make([]interval.Interval, 0, attrs)
	for _, v := range values {
		rel, body, err := splitTagged(v)
		if err != nil {
			return nil, err
		}
		at := len(slab)
		var id int64
		if id, slab, err = relation.DecodeBinary(body, slab); err != nil {
			return nil, err
		}
		cands[rel] = append(cands[rel], relation.Tuple{ID: id, Attrs: slab[at:len(slab):len(slab)]})
	}
	return cands, nil
}

// joinFunc is a join cycle's reduce with the writing left out: it hands emit
// every assignment the reducer of key accepts, asg[i] binding relation
// rels[i].
type joinFunc func(key int64, values []string, emit func(rels []int, asg []relation.Tuple) error) error

// setJoin installs join as the job's reduce. What it writes for an assignment
// depends on the cycle's place in the chain: a cycle that names an
// intermediate writes partial-assignment records for the next cycle to
// extend; the chain's last (no intermediate to name) adds the result row
// itself — packed, never rendered — to the rows the runner collects.
func (c *Context) setJoin(job *mr.Job, output string, join joinFunc) {
	if output != "" {
		job.Output = output
		job.Reduce = func(key int64, values []string, write func(string) error) error {
			// A join that binds one more relation writes records a member
			// longer than the ones it received, about as many of them.
			var out recordSlab
			for _, v := range values {
				out.hint += len(v) + memberLen(1)
			}
			return join(key, values, func(rels []int, asg []relation.Tuple) error {
				return write(encodePartial(&out, rels, asg))
			})
		}
		return
	}
	job.ReduceRows = func(key int64, values []string, out *mr.Rows) error {
		return join(key, values, func(rels []int, asg []relation.Tuple) error {
			c.packing.put(out, rels, asg)
			return nil
		})
	}
}

// cellJoin describes a cell-join cycle: records are routed into the space,
// each reducer enumerates the satisfying assignments among the tuples it
// received and the relations the space has it hold whole — every query
// condition among those relations, bound in index order — and emits them.
type cellJoin struct {
	name string
	sp   *space
	// ops routes every vertex of a relation when marked is nil (baseMap);
	// a cycle after a mark cycle routes by marked and pruned (markedMap).
	ops    []interval.Op
	marked marking
	// pruned lists per relation the tuple ids to drop map-side.
	pruned []map[int64]bool
	// owner applies the owner rule before emitting; a cycle whose routing
	// already makes every assignment meet at exactly one reducer skips it.
	owner bool
	// output names the intermediate the cycle writes: partial assignments.
	// Empty for the chain's last stage, which writes output tuples.
	output string
}

func (cj cellJoin) job(c *Context) mr.Job {
	sp := cj.sp
	// The chain's last stage collects its rows as words when they pack: the
	// join's last level writes each one itself (preparedJoin.runWords).
	words := cj.output == "" && c.packing.words
	// One shared enumerator per join unit — the whole product, or each line
	// of a union: the plans are static and per-run state is pooled inside.
	// A relation the product's reducers hold whole is one more level of the
	// product's unit, in index order like the rest, its candidates the
	// relation itself.
	type unit struct {
		e    *enumerator
		dims []dimension
		rels []int
		lvl  []int
		// owner[i] lists the vertices of dimension i by binding level; nil
		// when the cycle skips the owner rule.
		owner [][]levelAttr
	}
	units := make([]unit, len(sp.dims))
	if sp.product {
		units = units[:1]
	}
	for k := range units {
		u := unit{dims: sp.dims[k : k+1], lvl: make([]int, len(c.Rels))}
		if sp.product {
			u.dims = sp.dims
		}
		for rel, at := range sp.at {
			u.lvl[rel] = -1
			if slices.ContainsFunc(at, func(v vertexAt) bool { return sp.product || v.dim == k }) || slices.Contains(sp.whole, rel) {
				u.lvl[rel] = len(u.rels)
				u.rels = append(u.rels, rel)
			}
		}
		if cj.owner {
			u.owner = make([][]levelAttr, len(u.dims))
			for i, d := range u.dims {
				for _, v := range d.verts {
					u.owner[i] = append(u.owner[i], levelAttr{level: u.lvl[v.Rel], attr: v.Attr})
				}
			}
		}
		u.e = newEnumerator(c.Query.Conds, u.rels)
		units[k] = u
	}
	// prepare loads the values of key's reducer into a pooled join, next to
	// the relations the space has it hold whole, owner rule set to the
	// reducer's partitions.
	prepare := func(key int64, values []string) (*unit, *preparedJoin, error) {
		k, coord := sp.locate(key)
		u := &units[k]
		p := u.e.get()
		for _, rel := range sp.whole {
			p.hold(u.lvl[rel], c, rel)
		}
		if err := p.load(values, u.lvl); err != nil {
			u.e.put(p)
			return nil, nil, err
		}
		for i, verts := range u.owner {
			lo, hi := u.dims[i].span(coord[i])
			p.owner = append(p.owner, ownerRange{verts: verts, lo: lo, hi: hi})
		}
		return u, p, nil
	}

	job := mr.Job{Name: cj.name, Inputs: c.baseInputs(sp), MapAt: c.baseMap(sp, cj.ops)}
	if cj.marked != nil {
		job.MapAt = c.markedMap(sp, cj.marked, cj.pruned)
	}
	if words {
		job.ReduceRows = func(key int64, values []string, out *mr.Rows) error {
			u, p, err := prepare(key, values)
			if err != nil {
				return err
			}
			p.runWords(out, &c.packing)
			u.e.put(p)
			return nil
		}
	} else {
		c.setJoin(&job, cj.output, func(key int64, values []string, emit func([]int, []relation.Tuple) error) error {
			u, p, err := prepare(key, values)
			if err != nil {
				return err
			}
			defer u.e.put(p)
			return p.run(func(asg []relation.Tuple) error { return emit(u.rels, asg) })
		})
	}
	return job
}

// JoinInLine joins the context's relations in the caller: the last stage of
// a one-cell plan, whose single reducer holds every relation whole, run once
// with no job, shuffle or record. Its prepared join holds every relation
// whole, reading it where it lies when NewContext found it in place
// (preparedJoin.hold), and collects its rows as cellJoin's last stage does:
// a word from the join's last level when the rows pack, through
// rowPacking.put otherwise. So the result is the one every algorithm
// returns, the join's rows in canonical order. With an engine of several
// workers and rows that pack, the walk and the ordering both spread over the
// workers (inLineSplit): the walkers take stretches of the first level in
// turn and file each row under its first relation's id range (runSplit), and
// each range is ordered into its own stretch of the result (setRanges). Its
// Metrics are nil, since no cycle ran, and ctx.Engine may be nil.
func JoinInLine(ctx *Context) (*Result, error) {
	return joinInLine(ctx, ctx.inLineSplit(), nil, true)
}

// JoinInLineIDs is JoinInLine's join returning only the rows' ids, row after
// row in canonical order — what JoinInLine's Result.IDs holds — with no
// header per row. They are written in dst's memory when it has room for
// them, and in a slab of their own otherwise.
func JoinInLineIDs(ctx *Context, dst []int64) ([]int64, error) {
	res, err := joinInLine(ctx, ctx.inLineSplit(), dst, false)
	if err != nil {
		return nil, err
	}
	return res.IDs, nil
}

// joinInLine is JoinInLine spread as s says, its rows ordered into dst when
// it has room and given headers when headers is set (Result.size); more
// than one worker needs an engine and rows that pack.
func joinInLine(ctx *Context, s inLineSplit, dst []int64, headers bool) (*Result, error) {
	rels := allRelations(len(ctx.Rels))
	// The join runs once: its state comes from no pool, which would be new
	// with the enumerator and never used again.
	p := newEnumerator(ctx.Query.Conds, rels).reset(nil)
	for i := range rels {
		p.hold(i, ctx, i)
	}
	p.seal()
	res := &Result{Algorithm: "in-line"}
	if !ctx.packing.words {
		rows := ctx.packing.rows()
		if err := p.run(func(asg []relation.Tuple) error {
			ctx.packing.put(rows, rels, asg)
			return nil
		}); err != nil {
			return nil, err
		}
		res.setRows(rows, &ctx.packing, dst, headers)
		return res, nil
	}
	// Walkers that file their rows over several Rows climb to full-size
	// chunks in every one in two steps (Rows.Steep): doubling in each would
	// allocate a chunk a doubling of the rows for every range. So does the
	// one Rows of a join on no engine, a delta join's: its climb was a cold
	// query's largest allocation after the ids. A walker's rows take their
	// chunks on its own goroutine, so that two walkers' chunk lists, whose
	// headers they write on every row, lie in no common cache line.
	rows := make([]mr.Rows, min(s.workers, s.stretches)*s.ranges)
	for k := range rows {
		rows[k].Width, rows[k].Steep = 1, len(rows) > 1 || ctx.Engine == nil
	}
	if len(rows) == 1 {
		p.runWords(&rows[0], &ctx.packing)
	} else {
		p.runSplit(rows, ctx.wordCuts(s.ranges), &ctx.packing, s)
	}
	res.setRanges(&ctx.packing, rows, s.ranges, s.workers, dst, headers)
	return res, nil
}

// idCuts cuts the ids [lo, hi] into ranges of about equal width: cuts[k-1]
// is the least id of range k, and an id lies in range idRange(cuts, id). One
// range needs no cut. hi − lo must be below 2^63, as it is for the first
// column of rows that pack.
func idCuts(lo, hi int64, ranges int) []int64 {
	if ranges < 2 {
		return nil
	}
	width := uint64(hi) - uint64(lo) + 1
	cuts := make([]int64, ranges-1)
	for k := range cuts {
		top, bottom := bits.Mul64(uint64(k+1), width)
		off, _ := bits.Div64(top, bottom, uint64(ranges))
		cuts[k] = int64(uint64(lo) + off)
	}
	return cuts
}

// wordCuts cuts the first relation's id span into ranges as idCuts does and
// returns each cut packed: a word's first column is its top bits, so the rows
// of a range are the words from its least id's word on, and a word's range
// is idRange(cuts, word).
func (c *Context) wordCuts(ranges int) []int64 {
	cuts := idCuts(c.facts[0].Lo, c.facts[0].Hi, ranges)
	for k, cut := range cuts {
		cuts[k] = c.packing.place(0, cut)
	}
	return cuts
}

// idRange is the range of id under cuts: how many cuts lie at or below it.
// Counting them all, rather than stopping at the first above it, compiles to
// no branch on the random order ids come in.
func idRange(cuts []int64, id int64) int {
	k := 0
	for _, cut := range cuts {
		if id >= cut {
			k++
		}
	}
	return k
}

// bindStep describes a bind-step cycle: the partial assignments in current
// are joined with one novel relation on the step's driving condition, every
// other condition that becomes checkable is applied, and the extended
// assignments are written. In a union space the two sides are projected,
// split or replicated by the driving predicate's Figure 1 strategy; in a
// product both are projected onto their own dimension of a consistent-cell
// grid (the Section 7.2 configuration of the cascade baseline).
type bindStep struct {
	name string
	sp   *space
	step cascadeStep
	// current names the partial-assignment intermediate; empty for a chain's
	// first step, whose partial assignments are the existing relation itself.
	current string
	// output names the intermediate written; empty for the last stage, which
	// writes output tuples.
	output string
}

func (bs bindStep) job(c *Context) mr.Job {
	sp, step := bs.sp, bs.step
	ops := make([][]interval.Op, len(c.Rels))
	ops[step.existing], ops[step.novel] = []interval.Op{interval.OpProject}, []interval.Op{interval.OpProject}
	if !sp.product {
		strategy := interval.JoinStrategy(step.driving.Pred)
		ops[step.driving.Left.Rel][0], ops[step.driving.Right.Rel][0] = strategy.Left, strategy.Right
	}
	// The partial assignments arrive as records of the previous step; the
	// base sides — the novel relation, and in a chain's first step the
	// existing one — are mapped where they lie.
	job := mr.Job{
		Name: bs.name,
		Map: func(_ int, record string, emit mr.Emitter) error {
			var attrs [4]interval.Interval
			t, err := memberOf(record, step.existing, attrs[:0])
			if err != nil {
				return err
			}
			sp.route(emit, step.existing, t, ops[step.existing], 0, record)
			return nil
		},
		MapAt: func(tag, pos int, emit mr.Emitter) error {
			// Stream 0 carries the partial assignments, stream 1 the novel
			// relation's tuples.
			stream := 0
			if tag == step.novel {
				stream = 1
			}
			sp.route(emit, tag, c.Rels[tag].Tuples[pos], ops[tag], stream, c.tagged(tag, pos))
			return nil
		},
	}
	if bs.current != "" {
		job.Inputs = []mr.Input{{File: bs.current}}
	} else if in, ok := c.relInput(step.existing); ok {
		job.Inputs = []mr.Input{in}
	}
	if in, ok := c.relInput(step.novel); ok {
		job.Inputs = append(job.Inputs, in)
	}
	c.setJoin(&job, bs.output, func(_ int64, values []string, emit func([]int, []relation.Tuple) error) error {
		// Every value is decoded into one slab for the call, and each
		// extension is built in one buffer that emit reads and lets go.
		slab := newPartialSlab(values)
		partials := make([]partial, 0, len(values))
		var novel []relation.Tuple
		widest := 0
		for _, v := range values {
			pa, err := slab.decode(v)
			if err != nil {
				return err
			}
			if len(pa.rels) == 1 && pa.rels[0] == step.novel {
				novel = append(novel, pa.tuples[0])
				continue
			}
			partials = append(partials, pa)
			widest = max(widest, len(pa.rels))
		}
		rels, asg := make([]int, 0, widest+1), make([]relation.Tuple, 0, widest+1)
		for _, pa := range partials {
			rels = append(append(rels[:0], pa.rels...), step.novel)
			for _, t := range novel {
				if !satisfiesStep(pa, t, step) {
					continue
				}
				asg = append(append(asg[:0], pa.tuples...), t)
				if err := emit(rels, asg); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return job
}
