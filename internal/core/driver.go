package core

import (
	"fmt"
	"slices"

	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// The one driver skeleton. Every distributed algorithm is a short chain of
// MR cycles that differ only in how each cycle routes and joins, so every
// Algorithm.Run ends in runStages: the driver checks its query class, picks
// its partitioning or plan, and hands over a []mr.Stage built from the three
// cycle kinds of cycle.go; everything around the cycles — defaults, the
// provably-empty short-circuit, the boundary check, per-stage annotations,
// metrics aggregation and the result's order — happens here, once.

// chainEnv is what the runner has settled by the time a driver builds its
// stages.
type chainEnv struct {
	// opts is the run's options with defaults applied.
	opts Options
	// d is the query's decomposition into colocation components and the
	// sequence order among them; never contradictory.
	d *query.Decomposition
	// res is the run's result. Stage Taps report ReplicatedIntervals and
	// PrunedIntervals into it while the chain executes.
	res *Result
	// whole lists the relations the reducers of the chain's last stage each
	// hold entire rather than receive through the shuffle (plannedProduct).
	whole []int
}

// stageBuilder is a driver's half of a run: the chain of stages, plus the
// skew-adaptive plan to report (nil for the always-uniform grid layouts).
type stageBuilder func(*Context, *chainEnv) ([]mr.Stage, *execPlan, error)

// runStages runs alg as the chain of stages build returns: one pipeline,
// which streams every cycle boundary and overlaps one cycle's reduce phase
// with the next cycle's map phase.
//
// A stage's Job.Name and Job.Output are plain names ("mark", "marked"). A
// stage other than the last that names an Output streams it to the next
// stage, which must read it, so a run writes nothing to the store and needs
// no namespace there. The last stage names no output and sets ReduceRows
// (setJoin): its rows are the result. An intermediate stage with an empty
// Output is observed through its Tap only. The (algorithm, cycle, family)
// JobMeta is set here for every stage.
func (c *Context) runStages(alg string, build stageBuilder) (*Result, error) {
	opts := c.Opts.withDefaults()
	agg := mr.NewMetrics(alg)
	agg.Cycles = 0
	res := &Result{Algorithm: alg, Metrics: agg}
	d := query.Decompose(c.Query)
	if d.Contradictory {
		// Two sequence conditions enforce opposite orders between the same
		// components: the output is provably empty (Section 9). No cycle
		// runs.
		return res, nil
	}
	env := &chainEnv{opts: opts, d: d, res: res}
	stages, plan, err := build(c, env)
	if err != nil {
		return nil, err
	}

	// The last stage's output is the run's: it is collected in rows, a
	// packed word or the ids per row, and takes neither a text form nor a
	// place on the store. (The engine rejects a last stage without
	// ReduceRows.)
	rows := c.packing.rows()
	stages[len(stages)-1].Job.Rows = rows

	family := c.Query.Classify().String()
	for i := range stages {
		job := &stages[i].Job
		if out := job.Output; out != "" && i < len(stages)-1 &&
			!slices.ContainsFunc(stages[i+1].Job.Inputs, func(in mr.Input) bool { return in.File == out }) {
			return nil, fmt.Errorf("core: %s: stage %s writes %s, which the next stage does not read", alg, job.Name, out)
		}
		job.Meta = mr.JobMeta{Algorithm: alg, Cycle: i + 1, Family: family}
	}

	perCycle, m, err := c.Engine.RunPipeline(stages...)
	if err != nil {
		return nil, err
	}
	c.chargeWhole(perCycle[len(perCycle)-1], m, env.whole)
	res.PerCycle = perCycle
	agg.Merge(m)
	if plan != nil {
		agg.Plan = plan.info()
	}
	res.setRows(rows, &c.packing)
	return res, nil
}

// chargeWhole counts relations a cycle's reducers held whole as a cluster
// would ship them: every tuple to every reduce task that ran, one pair each,
// into the cycle's metrics and into the chain's aggregate agg. A broadcast
// has nothing to coalesce, so the logical and the physical counts grow
// alike, and Σ ReducerPairs == IntermediatePairs still holds for both.
func (c *Context) chargeWhole(cycle, agg *mr.Metrics, whole []int) {
	var tuples, bytes int64
	for _, rel := range whole {
		r := c.Rels[rel]
		tuples += int64(r.Len())
		// A tagged record and its 8-byte key, as the engine counts a pair.
		bytes += int64(r.Len()) * int64(memberLen(r.Schema.Arity())+8)
	}
	if tuples == 0 {
		return
	}
	for k := range cycle.ReducerPairs {
		cycle.ReducerPairs[k] += tuples
		agg.ReducerPairs[k] += tuples
	}
	tasks := int64(len(cycle.ReducerPairs))
	for _, m := range []*mr.Metrics{cycle, agg} {
		m.IntermediatePairs += tasks * tuples
		m.PhysicalPairs += tasks * tuples
		m.IntermediateBytes += tasks * bytes
		m.PhysicalBytes += tasks * bytes
	}
}

// replicateFlagTap counts the replicate-flagged records leaving a mark
// cycle — the paper's "# Intervals Replicated" statistic — without forcing
// the marked intermediate onto the store. Records are one-flag vectors: the
// flag is the byte behind the member. With ids set it also records each
// flagged tuple's id under its relation, for a join cycle that maps the base
// relations rather than the marking (markedMap).
func replicateFlagTap(n *int64, ids []map[int64]bool) func(string) {
	return func(rec string) {
		rel, m, err := splitMember(rec)
		if err != nil || len(rec) != m+1 || rec[m] != 1 {
			return
		}
		*n++
		if rel < len(ids) {
			if ids[rel] == nil {
				ids[rel] = make(map[int64]bool)
			}
			ids[rel][relation.BinaryID(rec[headerLen:])] = true
		}
	}
}
