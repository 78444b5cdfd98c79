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
	"slices"
	"strconv"
	"sync/atomic"

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
	// Scratch prefixes the intermediate and output file names on the
	// store, so concurrent runs do not collide. Defaults to the
	// algorithm name.
	Scratch string
	// SortValues makes every MR cycle deterministic; costs a sort.
	SortValues bool
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

// scratchSeq disambiguates the scratch namespaces of concurrent runs that
// share one store.
var scratchSeq atomic.Int64

func (o Options) withDefaults(name string) Options {
	if o.Partitions <= 0 {
		o.Partitions = 16
	}
	if o.PartitionsPerDim <= 0 {
		o.PartitionsPerDim = 6
	}
	if o.Scratch == "" {
		o.Scratch = name + "-" + strconv.FormatInt(scratchSeq.Add(1), 10)
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
}

// NewContext validates and assembles a run context. Relations are matched to
// the query's relation list by name.
func NewContext(engine *mr.Engine, q *query.Query, rels []*relation.Relation, opts Options) (*Context, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// A record names its relation and its arity in one header byte each.
	if len(q.Relations) > maxRelations {
		return nil, fmt.Errorf("core: query joins %d relations, a record can name at most %d", len(q.Relations), maxRelations)
	}
	bound := make([]*relation.Relation, len(q.Relations))
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
		if err := r.Validate(); err != nil {
			return nil, err
		}
		bound[i] = r
	}
	for i, r := range bound {
		if r == nil {
			return nil, fmt.Errorf("core: no relation bound for %s", q.Relations[i].Name)
		}
	}
	return &Context{Engine: engine, Query: q, Rels: bound, Opts: opts, slabs: make([]relSlab, len(bound))}, nil
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

// Key renders the canonical form used for set comparison and display:
// the ids in decimal, comma-separated.
func (o OutputTuple) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, id := range o {
		if i > 0 {
			b = append(b, ',')
		}
		//lint:ignore hotpathban Key is the result's display and set-comparison form, made by callers after the run; no record carries it
		b = strconv.AppendInt(b, id, 10)
	}
	return string(b)
}

// Result is what an algorithm run produces.
type Result struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Tuples is the join output in canonical order (ascending,
	// lexicographically by id): headers into IDs.
	Tuples []OutputTuple
	// IDs holds the output's ids row after row in the same order, so that
	// Tuples[i] is IDs[i*w:(i+1)*w] for a query over w relations. It is
	// exactly as long as the rows and, like them, read-only.
	IDs []int64
	// Metrics aggregates all MR cycles of the run.
	Metrics *mr.Metrics
	// PerCycle holds the metrics of each individual cycle.
	PerCycle []*mr.Metrics
	// ReplicatedIntervals counts the intervals selected for replication
	// (the paper's Table 1 "# Intervals Replicated" column). Zero for
	// algorithms that do not replicate.
	ReplicatedIntervals int64
	// PrunedIntervals maps relation index -> number of tuples PASM proved
	// cannot appear in any output and dropped before the join cycle
	// (the paper's Table 3 "% intervals pruned" column).
	PrunedIntervals map[int]int64
}

// setRows makes rows — a chain's last stage's output as the engine
// committed it, or the oracle's as it was enumerated — the run's result, in
// canonical order. Nothing is allocated per row: the ids are gathered into
// one slab and Tuples are views of it.
//
// The order comes in two levels, because every join unit binds the
// relations in index order and so emits rows in stretches that share their
// leading id: the stretches are sorted by that id, then each id's rows are
// brought together and sorted among themselves, on their second id first —
// a plain integer sort that seldom has to look further. Rows that arrive in
// no such order make every stretch one row long and the first level an
// ordinary sort; the result is the same.
func (r *Result) setRows(rows *mr.Rows) {
	w := rows.Width
	type stretch struct {
		id   int64
		rows []int64
	}
	var stretches []stretch
	for _, c := range rows.Chunks() {
		for lo := 0; lo < len(c); {
			hi := lo + w
			for hi < len(c) && c[hi] == c[lo] {
				hi += w
			}
			stretches = append(stretches, stretch{id: c[lo], rows: c[lo:hi]})
			lo = hi
		}
	}
	slices.SortFunc(stretches, func(a, b stretch) int { return cmp.Compare(a.id, b.id) })

	ids := make([]int64, 0, rows.Len()*w)
	type tail struct {
		id int64 // the row's second id
		at int   // the row's offset in group
	}
	var group, seconds []int64
	var tails []tail
	for i := 0; i < len(stretches); {
		id := stretches[i].id
		group = group[:0]
		for ; i < len(stretches) && stretches[i].id == id; i++ {
			group = append(group, stretches[i].rows...)
		}
		switch w {
		case 1:
			ids = append(ids, group...)
		case 2:
			// The second id is all that is left of the row: it sorts as a
			// bare integer column.
			seconds = seconds[:0]
			for at := 1; at < len(group); at += 2 {
				seconds = append(seconds, group[at])
			}
			slices.Sort(seconds)
			for _, s := range seconds {
				ids = append(ids, id, s)
			}
		default:
			tails = tails[:0]
			for at := 0; at < len(group); at += w {
				tails = append(tails, tail{id: group[at+1], at: at})
			}
			slices.SortFunc(tails, func(a, b tail) int {
				if c := cmp.Compare(a.id, b.id); c != 0 {
					return c
				}
				return slices.Compare(group[a.at+2:a.at+w], group[b.at+2:b.at+w])
			})
			for _, t := range tails {
				ids = append(ids, group[t.at:t.at+w]...)
			}
		}
	}
	r.IDs = ids
	r.Tuples = make([]OutputTuple, len(ids)/w)
	for i := range r.Tuples {
		r.Tuples[i] = ids[i*w : (i+1)*w : (i+1)*w]
	}
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

// TupleSet returns the output as a set of canonical keys.
func (r *Result) TupleSet() map[string]struct{} {
	set := make(map[string]struct{}, len(r.Tuples))
	for _, t := range r.Tuples {
		set[t.Key()] = struct{}{}
	}
	return set
}

// Algorithm is a runnable join algorithm.
type Algorithm interface {
	// Name identifies the algorithm ("rccis", "all-matrix", ...).
	Name() string
	// Run executes the algorithm and returns its result.
	Run(ctx *Context) (*Result, error)
}
