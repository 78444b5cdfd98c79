// Package core implements the paper's contribution: the map-reduce interval
// join algorithms. It contains the 2-way strategies of Figure 1, the naive
// baselines (2-way Cascade and All-Replicate), and the four main algorithms
// RCCIS (Section 6), All-Matrix (Section 7), All-Seq-Matrix and
// Pruned-All-Seq-Matrix (Section 8) and Gen-Matrix (Section 9), plus a
// nested-loop reference join used as a correctness oracle.
//
// All algorithms implement the Algorithm interface and run on the mr.Engine,
// which maps the context's relations where they lie (positional inputs: no
// text copy on the store), producing a Result: the output tuples plus the
// engine metrics the paper's evaluation compares (intermediate pairs,
// replicated intervals, per-reducer load, cycles).
package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Options tune an algorithm run.
type Options struct {
	// Partitions is the number of partition-intervals (= reducers) for the
	// one-dimensional algorithms and for each RCCIS sub-run. Defaults to
	// 16, the paper's cluster size.
	Partitions int
	// PartitionsPerDim is o, the number of partitions per grid dimension
	// for the matrix algorithms. Defaults to 6 (the paper's Section 7.1
	// configuration).
	PartitionsPerDim int
	// EquiDepth derives partition boundaries from quantiles of the data's
	// start points instead of splitting the range uniformly, so skewed
	// data still loads reducers evenly (the skew handling the paper notes
	// that "uniformly distributed data vs skewed data will need to be
	// processed differently").
	EquiDepth bool
	// Adaptive turns on the skew-aware planner: partition boundaries fall
	// back to equi-depth when the start-point histogram predicts a
	// straggler factor worth acting on, and partitions whose projected
	// load exceeds SplitThreshold× the mean are expanded into up to
	// MaxVirtual virtual reducers via a cell cover over the join's input
	// streams. Output is identical to the non-adaptive run; only the
	// reduce-key layout (and so the load balance) changes.
	Adaptive bool
	// SplitThreshold is the load/mean ratio beyond which the adaptive
	// planner splits a partition (0 selects cost.DefaultSplitThreshold).
	SplitThreshold float64
	// MaxVirtual caps the virtual reducers one partition may expand into
	// (0 selects cost.DefaultMaxVirtual).
	MaxVirtual int
	// AutoPartitions records that Partitions was chosen by
	// cost.AdvisePartitions (the -partitions auto CLI mode); it only
	// annotates the reported plan.
	AutoPartitions bool
}

func (o Options) withDefaults() Options {
	if o.Partitions <= 0 {
		o.Partitions = 16
	}
	if o.PartitionsPerDim <= 0 {
		o.PartitionsPerDim = 6
	}
	return o
}

// Context is everything an algorithm needs: the engine, the validated
// query, and the relations bound positionally to the query's relation list.
type Context struct {
	Engine *mr.Engine
	Query  *query.Query
	Rels   []*relation.Relation
	Opts   Options
	// slabs[i] is Rels[i] in record form, encoded when a cycle first maps it.
	slabs []relSlab
	// packing is how a result row over Rels becomes one word, read off the
	// relations' ids once: every run on the Context collects by it.
	packing rowPacking
	// facts[i] is what the same pass read of Rels[i] besides its ids: the
	// length of its longest first-attribute interval, which bounds how far a
	// row can reach (reachJoin), and whether its tuples lie where their
	// loader laid them, so that a join holding it whole reads it there
	// (preparedJoin.hold).
	facts []relation.Facts
}

// NewContext validates and assembles a run context. Relations are matched to
// the query's relation list by name. engine may be nil for a context that
// only JoinInLine or Reference runs on: neither starts a job.
func NewContext(engine *mr.Engine, q *query.Query, rels []*relation.Relation, opts Options) (*Context, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// A record names its relation and its arity in one header byte each.
	if len(q.Relations) > maxRelations {
		return nil, fmt.Errorf("core: query joins %d relations, a record can name at most %d", len(q.Relations), maxRelations)
	}
	bound := make([]*relation.Relation, len(q.Relations))
	// lo[i] and hi[i] bound relation i's ids: the result's packing.
	lo, hi := make([]int64, len(bound)), make([]int64, len(bound))
	facts := make([]relation.Facts, len(bound))
	for _, r := range rels {
		i := q.RelIndex(r.Schema.Name)
		if i < 0 {
			return nil, fmt.Errorf("core: relation %s does not appear in the query", r.Schema.Name)
		}
		if bound[i] != nil {
			return nil, fmt.Errorf("core: relation %s bound twice", r.Schema.Name)
		}
		if r.Schema.Arity() < q.Relations[i].Arity() {
			return nil, fmt.Errorf("core: relation %s has arity %d, query needs %d",
				r.Schema.Name, r.Schema.Arity(), q.Relations[i].Arity())
		}
		if r.Schema.Arity() > maxArity {
			return nil, fmt.Errorf("core: relation %s has %d attributes, a record can hold at most %d",
				r.Schema.Name, r.Schema.Arity(), maxArity)
		}
		f, err := r.Check()
		if err != nil {
			return nil, err
		}
		lo[i], hi[i], facts[i], bound[i] = f.Lo, f.Hi, f, r
	}
	for i, r := range bound {
		if r == nil {
			return nil, fmt.Errorf("core: no relation bound for %s", q.Relations[i].Name)
		}
	}
	return &Context{Engine: engine, Query: q, Rels: bound, Opts: opts, slabs: make([]relSlab, len(bound)),
		packing: newRowPacking(lo, hi), facts: facts}, nil
}

// Stage writes every relation to the store as "input/<name>", one text line
// (relation.EncodeTuple) per tuple, for callers that want to map the records
// themselves with an mr.Input{File} and an mr.MapFunc. The drivers do not
// read it: they map Rels positionally, and their own records are binary.
func (c *Context) Stage() error {
	for ri, r := range c.Rels {
		w, err := c.Engine.Store().Create("input/" + c.Query.Relations[ri].Name)
		if err != nil {
			return err
		}
		for _, t := range r.Tuples {
			//lint:ignore hotpathban Stage is the one text writer left in core: no driver calls it, the benchmark's core.stage_ms probe does
			if err := w.Write(relation.EncodeTuple(t)); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// timeRange returns the partitioning range: the bounds of all relations
// (padded by one so every end point falls strictly inside).
func (c *Context) timeRange() (t0, tn interval.Point, err error) {
	t0, tn, ok := relation.Bounds(c.Rels...)
	if !ok {
		return 0, 1, nil // all-empty inputs: any non-empty range works
	}
	return t0, tn, nil
}

// sampleBudget bounds the driver-side start-point sample used by equi-depth
// partitioning.
const sampleBudget = 8192

// sampleStarts stride-samples the start points of every relation's first
// attribute (the single-attribute algorithms' join column).
func (c *Context) sampleStarts() []interval.Point {
	total := 0
	for _, r := range c.Rels {
		total += r.Len()
	}
	if total == 0 {
		return nil
	}
	stride := total/sampleBudget + 1
	var sample []interval.Point
	i := 0
	for _, r := range c.Rels {
		for _, t := range r.Tuples {
			if i%stride == 0 {
				sample = append(sample, t.Attrs[0].Start)
			}
			i++
		}
	}
	return sample
}

// OutputTuple is one join result: the tuple id per relation, in query
// relation order.
type OutputTuple []int64

// Key renders the row for display: the ids in decimal, comma-separated.
func (o OutputTuple) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, id := range o {
		if i > 0 {
			b = append(b, ',')
		}
		//lint:ignore hotpathban Key is the result's display form, made by callers after the run; no record carries it
		b = strconv.AppendInt(b, id, 10)
	}
	return string(b)
}

// Result is what an algorithm run produces.
type Result struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Tuples is the join output in canonical order (ascending,
	// lexicographically by id): headers into IDs, one per row.
	Tuples []OutputTuple
	// IDs holds the output's ids row after row in the same order, so that
	// Tuples[i] is IDs[i*w:(i+1)*w] for a query over w relations. It is
	// exactly as long as the rows and, like them, read-only. The slab is
	// the result's own: the chunks the engine collected the rows in are
	// recycled as soon as it is built, and it shares no memory with them.
	IDs []int64
	// Metrics aggregates all MR cycles of the run.
	Metrics *mr.Metrics
	// PerCycle holds the metrics of each individual cycle.
	PerCycle []*mr.Metrics
	// ReplicatedIntervals counts the intervals selected for replication
	// (the paper's Table 1 "# Intervals Replicated" column). Zero for
	// algorithms that do not replicate, and for the planner's one-cycle
	// reach plan (reachJoin): it marks nothing and splits every tuple, as
	// the two-way overlap strategy does.
	ReplicatedIntervals int64
	// PrunedIntervals maps relation index -> number of tuples PASM proved
	// cannot appear in any output and dropped before the join cycle
	// (the paper's Table 3 "% intervals pruned" column).
	PrunedIntervals map[int]int64
}

// setRows makes rows — a chain's last stage's output as the engine
// committed it or as JoinInLine collected it, or the oracle's as it was
// enumerated, all collected as p says (rowPacking.rows) — the run's result,
// in canonical order, and hands their chunks back to the engine's pool: rows
// must not be read again. IDs is written in dst's memory when it has room
// and in a slab of its own otherwise, and Tuples is set only when headers
// is (size); it allocates nothing else.
//
// Packed rows are words: setRows is setRanges' one range, ordered in linear
// time on the caller (orderStretch). Rows that do not pack are w ids each and
// take one comparison sort, over headers it makes whether or not it keeps
// them.
func (r *Result) setRows(rows *mr.Rows, p *rowPacking, dst []int64, headers bool) {
	w, n := len(p.lo), rows.Len()
	r.size(n, w, dst, headers)
	if p.words {
		r.orderStretch(p, 0, rows.Chunks())
	} else {
		// Tuples stand for the rows where the engine left them while they
		// are sorted, then each row moves to its place in the slab.
		tuples := r.Tuples
		if !headers {
			tuples = make([]OutputTuple, n)
		}
		i := 0
		for _, c := range rows.Chunks() {
			for at := 0; at < len(c); at += w {
				tuples[i] = c[at : at+w]
				i++
			}
		}
		slices.SortFunc(tuples, func(a, b OutputTuple) int { return slices.Compare(a, b) })
		for i, t := range tuples {
			row := r.IDs[i*w : (i+1)*w : (i+1)*w]
			copy(row, t)
			tuples[i] = row
		}
	}
	rows.Release()
}

// size readies the result for n rows of w ids: IDs in dst's memory when it
// has room for them, in a fresh slab otherwise, and Tuples, a header per
// row, when headers is set, nil when it is not.
func (r *Result) size(n, w int, dst []int64, headers bool) {
	if dst == nil || cap(dst) < n*w {
		dst = make([]int64, n*w)
	}
	r.IDs, r.Tuples = dst[:n*w], nil
	if headers {
		r.Tuples = make([]OutputTuple, n)
	}
}

// spreadRows is the fewest rows setRanges orders on more than one goroutine:
// below it a helper took nothing off the caller's wall on two workers, at
// twice it a seventh (BenchmarkSetRows' per-range arms).
const spreadRows = 1 << 14

// setRanges makes packed rows filed by first-column id range the run's
// result, in canonical order, and hands their chunks back to the engine's
// pool: rows[g*ranges+k] holds walker g's rows of range k, and every row of
// range k orders before every row of range k+1 — the total-order partitioner
// of a sorted MapReduce output. So range k's rows make one stretch of the
// result, which starts at the rows of the ranges before it, and each stretch
// is ordered alone (orderStretch): by the caller, or, from spreadRows rows on,
// by up to workers goroutines, the caller among them, that claim the ranges in
// turn and write disjoint stretches of one slab. One Rows is setRows' case.
// IDs and Tuples are sized as setRows sizes them (size); besides them it
// allocates the ranges' lists of chunks.
func (r *Result) setRanges(p *rowPacking, rows []mr.Rows, ranges, workers int, dst []int64, headers bool) {
	if len(rows) == 1 {
		r.setRows(&rows[0], p, dst, headers)
		return
	}
	type stretch struct {
		at     int
		chunks [][]int64
	}
	walkers, count := len(rows)/ranges, 0
	for g := range rows {
		count += len(rows[g].Chunks())
	}
	stretches, chunks, n := make([]stretch, ranges), make([][]int64, 0, count), 0
	for k := range stretches {
		from := len(chunks)
		stretches[k].at = n
		for g := range walkers {
			n += rows[g*ranges+k].Len()
			chunks = append(chunks, rows[g*ranges+k].Chunks()...)
		}
		stretches[k].chunks = chunks[from:]
	}
	r.size(n, len(p.lo), dst, headers)
	if n < spreadRows {
		workers = 1
	}
	spread(ranges, workers, func(_, k int) {
		r.orderStretch(p, stretches[k].at, stretches[k].chunks)
	})
	for g := range rows {
		rows[g].Release()
	}
}

// orderStretch orders the packed rows in chunks into the result's stretch of
// rows that starts at row at, in IDs and Tuples as sized: a radix sort
// from the chunks into the head of the stretch's slab (sortWords), then one
// backward pass that unpacks each word into its row in place — row i's ids
// land at or after word i, so no word is overwritten before it is read — and
// sets its header when the result has headers.
func (r *Result) orderStretch(p *rowPacking, at int, chunks [][]int64) {
	w, n := len(p.lo), 0
	for _, c := range chunks {
		n += len(c)
	}
	ids := r.IDs[at*w : (at+n)*w]
	var tuples []OutputTuple
	if r.Tuples != nil {
		tuples = r.Tuples[at : at+n]
	}
	p.sortWords(ids, chunks)
	for i := n - 1; i >= 0; i-- {
		word := ids[i]
		row := ids[i*w : (i+1)*w : (i+1)*w]
		for k := w - 1; k >= 0; k-- {
			row[k] = p.lo[k] + word&(1<<p.bits[k]-1)
			word >>= p.bits[k]
		}
		if tuples != nil {
			tuples[i] = row
		}
	}
}

// rowPacking is how a result row becomes one word: column k — relation k's
// id — contributes id - lo[k] in bits[k] bits at shift[k], the first column
// highest, so that words compare as rows do. The bits sum to total.
//
// Ids are small dense integers almost always (LoadRelation, FromIntervals
// and Append number a relation's tuples 0..n-1), so every row of a run packs.
// words says whether it does: at least two columns (the ordering's second
// buffer is the result slab's own tail) whose id spans take 63 bits between
// them at most, so that a word is never negative. Otherwise rows are
// collected and ordered as w ids, the one fallback.
type rowPacking struct {
	lo    []int64
	bits  []uint8
	shift []uint8
	total int
	words bool
}

// newRowPacking packs columns whose ids lie in [lo[k], hi[k]]: NewContext
// reads each relation's range as it validates it. An empty relation binds no
// row; its range is [0, 0], and its column takes no bit.
func newRowPacking(lo, hi []int64) rowPacking {
	w := len(lo)
	p := rowPacking{lo: lo, bits: make([]uint8, w), shift: make([]uint8, w)}
	for k := w - 1; k >= 0; k-- {
		// Unsigned, because the span itself may pass MaxInt64.
		p.bits[k] = uint8(bits.Len64(uint64(hi[k]) - uint64(lo[k])))
		if p.total <= 63 {
			p.shift[k] = uint8(p.total)
		}
		p.total += int(p.bits[k])
	}
	p.words = w >= 2 && p.total <= 63
	return p
}

// rows is what the rows of a run are collected in: a word each, or w ids.
func (p *rowPacking) rows() *mr.Rows {
	if p.words {
		return &mr.Rows{Width: 1}
	}
	return &mr.Rows{Width: len(p.lo)}
}

// put adds the complete assignment asg, asg[i] binding relation rels[i], to
// rows as a result row.
func (p *rowPacking) put(rows *mr.Rows, rels []int, asg []relation.Tuple) {
	if !p.words {
		row := rows.Append()
		for i, t := range asg {
			row[rels[i]] = t.ID
		}
		return
	}
	var word int64
	for i, t := range asg {
		word |= p.place(rels[i], t.ID)
	}
	rows.Append()[0] = word
}

// place is the bits relation rel's id contributes to a row's word.
func (p *rowPacking) place(rel int, id int64) int64 {
	return (id - p.lo[rel]) << p.shift[rel]
}

// radixBits is the digit of the word sort: 2048 counters a digit, so a 20-bit
// row takes two passes and a 30-bit row three; a word has radixDigits at most.
const (
	radixBits   = 11
	radixDigits = (63 + radixBits - 1) / radixBits
)

// sortWords puts the words of chunks into the head of slab in ascending
// order: n words where slab holds n rows of w ids. One scatter a digit, least
// significant first: the first reads the chunks, and every later one moves the
// words between the slab's first n words and the n after them. The first
// lands on the side from which the last lands them in front. A pass over the
// chunks counts the first digit, and each scatter counts the next one as it
// moves the words (radixCounts).
func (p *rowPacking) sortWords(slab []int64, chunks [][]int64) {
	n := len(slab) / len(p.lo)
	if n == 0 {
		return
	}
	const mask = 1<<radixBits - 1
	digits := max(1, (p.total+radixBits-1)/radixBits)
	var counts radixCounts[int]
	for _, c := range chunks {
		for _, word := range c {
			counts[0][word&mask]++
		}
	}
	halves := [2][]int64{slab[:n], slab[n : 2*n]}
	side := 1 - digits%2
	at, next := counts.turn(0, digits)
	to := halves[side]
	for _, c := range chunks {
		for _, word := range c {
			k := word & mask
			to[at[k]] = word
			at[k]++
			next[word>>radixBits&mask]++
		}
	}
	for d := 1; d < digits; d++ {
		from := halves[side]
		side ^= 1
		at, next := counts.turn(d, digits)
		to, shift := halves[side], d*radixBits
		for _, word := range from {
			k := word >> shift & mask
			to[at[k]] = word
			at[k]++
			next[word>>(shift+radixBits)&mask]++
		}
	}
}

// radixCounts is the counters of a radix sort: two rows of a digit's
// buckets, which take the digits in turn. While a scatter moves the keys by
// digit d, whose row holds its buckets' offsets, it counts digit d+1 in the
// other row. Six rows, one a digit, were 98 KB of ints zeroed whole on every
// call, and a helper goroutine's stack had to grow to hold them, which cost
// more than a short sort; two cost what a digit does, and a row is cleared
// only when a digit needs it.
type radixCounts[T int | int32] [2][1 << radixBits]T

// turn readies digit d of a sort of the given digits: it makes d's row the
// offsets of its buckets, in place of their counts, and clears the other row
// for the next digit's counts — but not before the last digit, whose next row
// nothing reads, nor before digit 0, whose next row is still as declared.
func (c *radixCounts[T]) turn(d, digits int) (at, next *[1 << radixBits]T) {
	at, next = &c[d%2], &c[1-d%2]
	var sum T
	for k, count := range at {
		at[k] = sum
		sum += count
	}
	if d > 0 && d+1 < digits {
		clear(next[:])
	}
	return at, next
}

// SortTuples orders the output canonically for comparison and display. The
// drivers' results are already in that order.
func (r *Result) SortTuples() {
	slices.SortFunc(r.Tuples, func(a, b OutputTuple) int {
		for k := range a {
			if c := cmp.Compare(a[k], b[k]); c != 0 {
				return c
			}
		}
		return 0
	})
}

// Algorithm is a runnable join algorithm.
type Algorithm interface {
	// Name identifies the algorithm ("rccis", "all-matrix", ...).
	Name() string
	// Run executes the algorithm and returns its result.
	Run(ctx *Context) (*Result, error)
}
