package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"intervaljoin"
)

// digest identifies a join output independent of row order: the row
// count and the wrapping sum of a 64-bit hash of every row.
type digest struct {
	rows int
	sum  uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func rowHash(t []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, id := range t {
		h = mix64(h ^ uint64(id))
	}
	return h
}

// consume reads every result tuple, as a caller of the join would.
func consume(tuples []intervaljoin.OutputTuple) digest {
	d := digest{rows: len(tuples)}
	for _, t := range tuples {
		d.sum += rowHash(t)
	}
	return d
}

// batchOp is one complete join the way a library user runs it: text files
// → LoadRelation → Engine.Run → every result tuple consumed. A fresh
// engine per op is what one ijoin invocation does, and keeps one op's
// outputs out of the next op's store.
func batchOp(in *instance, tracer *intervaljoin.Tracer, rec *recorder, op int) (time.Duration, digest, *intervaljoin.Result, error) {
	start := time.Now()
	root := rec.begin("op", op, -1, 0)
	defer rec.end(root)
	eng, err := intervaljoin.NewEngine(intervaljoin.EngineOptions{Tracer: tracer})
	if err != nil {
		return 0, digest{}, nil, err
	}
	sp := rec.begin("query.parse", op, root, 0)
	q, err := intervaljoin.ParseQuery(in.w.query)
	rec.end(sp)
	if err != nil {
		return 0, digest{}, nil, err
	}
	rels := make([]*intervaljoin.Relation, len(in.files))
	for i, f := range in.files {
		sp = rec.begin("relation.load", op, root, 0)
		rels[i], err = intervaljoin.LoadRelation(intervaljoin.NewSchema(in.names[i]), f)
		rec.end(sp)
		if err != nil {
			return 0, digest{}, nil, err
		}
	}
	sp = rec.begin("core.run", op, root, 0)
	res, err := eng.Run(q, rels, intervaljoin.RunOptions{})
	rec.end(sp)
	if err != nil {
		return 0, digest{}, nil, err
	}
	sp = rec.begin("bench.consume", op, root, 0)
	d := consume(res.Tuples)
	rec.end(sp)
	return time.Since(start), d, res, nil
}

// pass is what one measured stretch of ops produced.
type pass struct {
	lat    []float64 // per-op latency, ms, in completion order
	wall   time.Duration
	failed int
	cpu    time.Duration // CPU time of the process executing the joins
	alloc  uint64        // bytes that process heap-allocated

	// Serve passes only.
	svcWall   []float64 // the responses' wall_ns, ms
	opWindow  []int     // window index of each op
	opRows    []int     // row count each op returned
	respBytes int64
	rejected  int
}

func (p *pass) ops() int { return len(p.lat) }

// add appends another pass's ops and totals.
func (p *pass) add(q *pass) {
	p.lat = append(p.lat, q.lat...)
	p.svcWall = append(p.svcWall, q.svcWall...)
	p.opWindow = append(p.opWindow, q.opWindow...)
	p.opRows = append(p.opRows, q.opRows...)
	p.wall += q.wall
	p.cpu += q.cpu
	p.alloc += q.alloc
	p.failed += q.failed
	p.respBytes += q.respBytes
	p.rejected += q.rejected
}

func (p *pass) sortedLat() []float64 {
	s := slices.Clone(p.lat)
	slices.Sort(s)
	return s
}

// done reports whether a pass that has run for elapsed and completed ops
// should stop: after the requested time once minOps are in, or — when a
// time was requested — at four times it regardless.
func done(elapsed time.Duration, seconds float64, ops, minOps int) bool {
	limit := time.Duration(seconds * float64(time.Second))
	return (elapsed >= limit && ops >= minOps) || (limit > 0 && elapsed >= 4*limit)
}

// maxReported is how many failed ops of a pass are printed; all of them
// are counted.
const maxReported = 3

// batchPass runs ops back to back for the given time. Every op must
// reproduce the expected digest; one that does not counts as failed.
func batchPass(ctx context.Context, in *instance, want digest, seconds float64, minOps int) (*pass, error) {
	p := &pass{}
	cpu0, err := selfCPU()
	if err != nil {
		return nil, err
	}
	alloc0 := selfAlloc()
	start := time.Now()
	for op := 0; !done(time.Since(start), seconds, op, minOps); op++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		d, got, _, err := batchOp(in, nil, nil, op)
		if err == nil && got != want {
			err = fmt.Errorf("output (%d rows, sum %x), want (%d rows, sum %x)", got.rows, got.sum, want.rows, want.sum)
		}
		if err != nil {
			if p.failed++; p.failed <= maxReported {
				fmt.Fprintf(os.Stderr, "bench: %s op %d: %v\n", in.w.name, op, err)
			}
		}
		p.lat = append(p.lat, ms(d))
	}
	p.wall = time.Since(start)
	p.alloc = selfAlloc() - alloc0
	cpu1, err := selfCPU()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	return p, nil
}

// checkAgainstOracle runs a scaled-down instance of the workload's own
// generator and query through the measured path and through
// Engine.Oracle, and requires identical tuple sets.
func checkAgainstOracle(w *workload, seed int64, dir string) error {
	scaled := w.scaled(w.oracleDiv)
	small, err := generate(&scaled, seed, dir)
	if err != nil {
		return err
	}
	_, _, res, err := batchOp(small, nil, nil, 0)
	if err != nil {
		return err
	}
	eng, err := intervaljoin.NewEngine(intervaljoin.EngineOptions{})
	if err != nil {
		return err
	}
	q, err := intervaljoin.ParseQuery(small.w.query)
	if err != nil {
		return err
	}
	rels := make([]*intervaljoin.Relation, len(small.rels))
	for i, rel := range small.rels {
		ivs := make([]intervaljoin.Interval, len(rel))
		for j, iv := range rel {
			ivs[j] = intervaljoin.NewInterval(iv.s, iv.e)
		}
		rels[i] = intervaljoin.FromIntervals(small.names[i], ivs)
	}
	ref, err := eng.Oracle(q, rels, intervaljoin.RunOptions{})
	if err != nil {
		return err
	}
	if len(ref.Tuples) == 0 {
		return fmt.Errorf("%s: the scaled-down oracle instance has no output rows; the check would be vacuous", w.name)
	}
	res.SortTuples()
	ref.SortTuples()
	if !slices.EqualFunc(res.Tuples, ref.Tuples, func(a, b intervaljoin.OutputTuple) bool { return slices.Equal(a, b) }) {
		return fmt.Errorf("%s: measured path returned %d rows, oracle %d, and the sets differ", w.name, len(res.Tuples), len(ref.Tuples))
	}
	return nil
}
