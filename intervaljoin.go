// Package intervaljoin is a Go implementation of "Processing Interval Joins
// On Map-Reduce" (EDBT 2014): multi-way joins over interval data with
// predicates from Allen's interval algebra, executed on a built-in
// MapReduce engine.
//
// The package classifies a join query into the paper's four classes and
// runs the matching algorithm:
//
//   - colocation queries (overlaps, contains, meets, starts, finishes,
//     equals, and inverses) → RCCIS, which replicates only the intervals
//     that belong to consistent interval-sets crossing a partition boundary
//     — or, when the longest interval is short against the partitions,
//     skips that marking cycle and splits every interval a bounded reach
//     past its end, joining in one cycle;
//   - sequence queries (before/after) → All-Matrix, which spreads the
//     cross-product-like workload over a multi-dimensional grid of
//     consistent reducers;
//   - hybrid queries → All-Seq-Matrix (or its pruned variant PASM);
//   - general multi-attribute queries → Gen-Matrix.
//
// Quick start:
//
//	eng := intervaljoin.NewEngine(intervaljoin.EngineOptions{})
//	q, _ := intervaljoin.ParseQuery("R1 overlaps R2 and R2 overlaps R3")
//	res, _ := eng.Run(q, []*intervaljoin.Relation{r1, r2, r3}, intervaljoin.RunOptions{})
//	for _, t := range res.Tuples { ... }
//
// The naive baselines the paper compares against (2-way Cascade,
// All-Replicate, FCTS) are available through RunWith for benchmarking.
package intervaljoin

import (
	"fmt"
	"io"
	"sort"

	"intervaljoin/internal/core"
	"intervaljoin/internal/cost"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/stats"
)

// Interval is a closed interval [Start, End] over int64 time points.
type Interval = interval.Interval

// Point is a position on the time line.
type Point = interval.Point

// NewInterval returns the interval [start, end]; it panics if end < start.
func NewInterval(start, end Point) Interval { return interval.New(start, end) }

// PointValue returns the degenerate interval modelling the real value p.
func PointValue(p Point) Interval { return interval.PointInterval(p) }

// Predicate is one of the thirteen Allen relations.
type Predicate = interval.Predicate

// The thirteen Allen relations.
const (
	Before       = interval.Before
	After        = interval.After
	Meets        = interval.Meets
	MetBy        = interval.MetBy
	Overlaps     = interval.Overlaps
	OverlappedBy = interval.OverlappedBy
	Contains     = interval.Contains
	ContainedBy  = interval.ContainedBy
	Starts       = interval.Starts
	StartedBy    = interval.StartedBy
	Finishes     = interval.Finishes
	FinishedBy   = interval.FinishedBy
	Equals       = interval.Equals
)

// Relation is a named collection of tuples of interval attributes.
type Relation = relation.Relation

// Schema describes a relation's name and attribute columns.
type Schema = relation.Schema

// Tuple is one row of a relation.
type Tuple = relation.Tuple

// NewSchema builds a schema; with no attributes a single attribute "I" is
// assumed.
func NewSchema(name string, attrs ...string) Schema { return relation.NewSchema(name, attrs...) }

// NewRelation builds an empty relation with the given schema.
func NewRelation(schema Schema) *Relation { return relation.New(schema) }

// FromIntervals builds a single-attribute relation from intervals, with
// tuple ids 0..n-1.
func FromIntervals(name string, ivs []Interval) *Relation {
	return relation.FromIntervals(name, ivs)
}

// Query is a conjunctive multi-way interval join query.
type Query = query.Query

// ParseQuery parses the query language, e.g.
// "R1 overlaps R2 and R2 contains R3" or "R1.I before R2.I and R1.A = R2.A".
func ParseQuery(s string) (*Query, error) { return query.Parse(s) }

// Result is a join run's output tuples plus the paper's cost metrics
// (intermediate pairs, replicated intervals, per-reducer load, cycles).
type Result = core.Result

// OutputTuple holds one output row's tuple id per relation, in query
// relation order.
type OutputTuple = core.OutputTuple

// Algorithm is a runnable join algorithm.
type Algorithm = core.Algorithm

// RunOptions tune a run; see core.Options. The zero value uses 16
// partitions and 6 partitions per grid dimension, the paper's defaults.
type RunOptions = core.Options

// Tracer is the engine's observability collector (see internal/obs): a
// non-nil tracer attached via EngineOptions records structured spans for
// every run; a run's counts are on its Result.Metrics. A nil *Tracer is
// valid and disabled — the engine then pays only a nil check per
// instrumentation point.
type Tracer = obs.Tracer

// TracerOptions configure a Tracer.
type TracerOptions = obs.Options

// NewTracer returns an enabled tracer; attach it through
// EngineOptions.Tracer and export what it saw with Engine.WriteTrace /
// Engine.WriteMetrics after the run.
func NewTracer(opts TracerOptions) *Tracer { return obs.New(opts) }

// EngineOptions configure the engine.
type EngineOptions struct {
	// Workers bounds map/reduce task parallelism; 0 means GOMAXPROCS.
	Workers int
	// Tracer, when non-nil, records execution spans and statistics for
	// every run on this engine (see docs/OBSERVABILITY.md). Nil disables
	// tracing at near-zero cost.
	Tracer *Tracer
	// ResplitPairThreshold, when positive, lets the engine re-split a
	// reduce task whose value list reaches this size across spare workers
	// mid-job (for algorithms that provide a decomposition; see
	// docs/ALGORITHMS.md "Skew-aware execution"). 0 disables re-splitting.
	ResplitPairThreshold int
}

// Engine runs queries on the built-in MapReduce engine.
type Engine struct {
	mr     *mr.Engine
	tracer *Tracer
}

// NewEngine builds an engine. The error is always nil.
func NewEngine(opts EngineOptions) (*Engine, error) {
	return &Engine{
		mr: mr.NewEngine(mr.Config{
			Store:                dfs.NewMem(),
			Workers:              opts.Workers,
			Tracer:               opts.Tracer,
			ResplitPairThreshold: opts.ResplitPairThreshold,
		}),
		tracer: opts.Tracer,
	}, nil
}

// Tracer returns the tracer attached at construction, or nil.
func (e *Engine) Tracer() *Tracer { return e.tracer }

// WriteTrace writes everything the engine's tracer has recorded as a
// Chrome trace_event JSON document — loadable in Perfetto or
// chrome://tracing. Without a tracer it writes an empty, valid trace.
func (e *Engine) WriteTrace(w io.Writer) error {
	return mr.WriteChromeTrace(w, e.tracer)
}

// WriteMetrics writes the machine-readable metrics.json report for a run:
// the tracer's per-phase wall breakdown (when a tracer is attached) joined
// with the result's serialized-model metrics, reducer-skew table and
// partition plan (the format is internal/obs.Report).
func (e *Engine) WriteMetrics(w io.Writer, res *Result) error {
	name := "run"
	var m *mr.Metrics
	if res != nil {
		name = res.Algorithm
		m = res.Metrics
	}
	return mr.WriteMetricsJSON(w, name, e.tracer, m)
}

// MustNewEngine is NewEngine for examples and tests; it panics on error.
func MustNewEngine(opts EngineOptions) *Engine {
	e, err := NewEngine(opts)
	if err != nil {
		panic(err)
	}
	return e
}

// Run executes the query with the paper's recommended algorithm for its
// class. Relations are matched to the query by name, in any order. Queries
// that Allen-algebra reasoning proves empty return an empty result without
// touching the data.
func (e *Engine) Run(q *Query, rels []*Relation, opts RunOptions) (*Result, error) {
	if query.ProvablyEmpty(q) {
		// Still validate the bindings so misuse surfaces identically.
		if _, err := core.NewContext(e.mr, q, rels, opts); err != nil {
			return nil, err
		}
		return &Result{Algorithm: "provably-empty", Metrics: mr.NewMetrics("provably-empty")}, nil
	}
	return e.RunWith(core.Plan(q, false), q, rels, opts)
}

// RunWith executes the query with an explicit algorithm (see AlgorithmByName
// and Algorithms).
func (e *Engine) RunWith(alg Algorithm, q *Query, rels []*Relation, opts RunOptions) (*Result, error) {
	ctx, err := core.NewContext(e.mr, q, rels, opts)
	if err != nil {
		return nil, err
	}
	return alg.Run(ctx)
}

// Oracle computes the query with the in-memory reference nested-loop join —
// handy for verifying a distributed run on small data.
func (e *Engine) Oracle(q *Query, rels []*Relation, opts RunOptions) (*Result, error) {
	return e.RunWith(core.Reference{}, q, rels, opts)
}

// algorithmRegistry maps names to constructors.
var algorithmRegistry = map[string]func() Algorithm{
	"two-way":             func() Algorithm { return core.TwoWay{} },
	"rccis":               func() Algorithm { return core.RCCIS{} },
	"all-matrix":          func() Algorithm { return core.AllMatrix{} },
	"all-seq-matrix":      func() Algorithm { return core.SeqMatrix{} },
	"pasm":                func() Algorithm { return core.PASM{} },
	"gen-matrix":          func() Algorithm { return core.GenMatrix{} },
	"fcts":                func() Algorithm { return core.FCTS{} },
	"fstc":                func() Algorithm { return core.FSTC{} },
	"all-rep":             func() Algorithm { return core.AllRep{} },
	"2way-cascade":        func() Algorithm { return core.Cascade{} },
	"2way-cascade-matrix": func() Algorithm { return core.Cascade{MatrixSteps: true} },
	"reference":           func() Algorithm { return core.Reference{} },
}

// AlgorithmByName returns the named algorithm. AlgorithmNames lists the
// valid names.
func AlgorithmByName(name string) (Algorithm, error) {
	mk, ok := algorithmRegistry[name]
	if !ok {
		return nil, fmt.Errorf("intervaljoin: unknown algorithm %q (valid: %v)", name, AlgorithmNames())
	}
	return mk(), nil
}

// AlgorithmNames lists the registered algorithm names, sorted.
func AlgorithmNames() []string {
	names := make([]string, 0, len(algorithmRegistry))
	for n := range algorithmRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Plan returns the paper's recommended algorithm for the query's class.
func Plan(q *Query) Algorithm { return core.Plan(q, false) }

// ProvablyEmpty reports whether Allen-algebra path-consistency reasoning
// proves the query's output empty for every possible input (including
// real-valued point attributes) — a driver can then skip the join entirely.
// A false result does not guarantee a non-empty output.
func ProvablyEmpty(q *Query) bool { return query.ProvablyEmpty(q) }

// ProvablyEmptyProper is ProvablyEmpty under the extra assumption that
// every data interval has non-zero length; it proves strictly more queries
// empty.
func ProvablyEmptyProper(q *Query) bool { return query.ProvablyEmptyProper(q) }

// LoadRelation reads a relation from the text interchange format shared by
// the CLI tools: one tuple per line, "start,end" attributes separated by
// '|', '#' comments and blank lines ignored.
func LoadRelation(schema Schema, path string) (*Relation, error) {
	return relation.LoadFile(schema, path)
}

// SaveRelation writes a relation in the format LoadRelation reads.
func SaveRelation(rel *Relation, path string) error { return relation.SaveFile(rel, path) }

// LoadSummary describes a per-reducer load distribution: min, max, mean,
// coefficient of variation, straggler factor (max/mean) and Gini
// coefficient.
type LoadSummary = stats.Summary

// SummarizeLoad computes the summary of a reducer load vector (see
// Result.Metrics.ReducerLoadVector) — the Figure 4 statistics.
func SummarizeLoad(loads []int64) LoadSummary { return stats.Summarize(loads) }

// CostEstimate is one algorithm's predicted communication cost (see the
// cost model in internal/cost).
type CostEstimate = cost.Estimate

// Advise ranks the applicable algorithms for a single-attribute query by
// estimated straggler load, from per-relation statistics — the Zhang-style
// cost model the paper lists as future work. partitions is the 1-D reducer
// count, perDim the grid partitions per dimension.
func Advise(q *Query, rels []*Relation, partitions, perDim int) ([]CostEstimate, error) {
	return cost.Advise(q, rels, partitions, perDim)
}

// AdvisePartitions picks a 1-D partition count for the given relations by
// minimising the cost model's predicted intermediate pairs over the
// candidate counts (default candidates 4..64 in powers of two when nil) —
// the "-partitions auto" mode of cmd/ijoin. Pair it with
// RunOptions.AutoPartitions so the choice is recorded in metrics.json.
func AdvisePartitions(rels []*Relation, candidates []int) int {
	return cost.AdvisePartitions(rels, candidates)
}

// RecommendEquiDepth reports whether quantile partition boundaries
// (RunOptions.EquiDepth) are advisable at the given reducer count: true
// when the data's start-point histogram predicts a straggler factor above
// 2 under uniform-width partitions.
func RecommendEquiDepth(rels []*Relation, partitions int) bool {
	return cost.RecommendEquiDepth(rels, partitions, 0)
}
