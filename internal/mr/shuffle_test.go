package mr

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/obs"
)

// shuffleCase is one random job of the shuffle property test: what every
// position of a positional input emits, decided up front so that the engine
// and the reference replay the same thing.
type shuffleCase struct {
	workers, spill int
	plan           [][]emission // plan[pos] is what position pos emits
}

// randomShuffleCase draws a job: 1–8 workers, in memory or with a spill
// threshold of a page or less, and a key space that is dense, sparse, beyond
// 2³² or — in memory, where no key is special — negative. Half the pairs of a
// hot case go to one key, ranges of width 1–12 are mixed in, and some position
// emits more than two pages by itself.
func randomShuffleCase(rng *rand.Rand) shuffleCase {
	c := shuffleCase{workers: 1 + rng.Intn(8)}
	if rng.Intn(2) == 0 {
		c.spill = 20 + rng.Intn(emitPageLen)
	}
	var key func() int64
	switch kind := rng.Intn(4); {
	case kind == 0:
		key = func() int64 { return rng.Int63n(24) }
	case kind == 1:
		key = func() int64 { return rng.Int63n(1 << 20) }
	case kind == 2:
		key = func() int64 { return 1<<32 + rng.Int63n(1<<40) }
	case c.spill == 0:
		key = func() int64 { return rng.Int63n(64) - 48 }
	default:
		key = func() int64 { return rng.Int63n(64) }
	}
	hasHot := rng.Intn(2) == 0
	hot := key()
	positions := 1 + rng.Intn(3*mapBatchSize)
	big := rng.Intn(positions)
	c.plan = make([][]emission, positions)
	for pos := range c.plan {
		n := rng.Intn(4)
		if pos == big {
			n = 2*emitPageLen + rng.Intn(emitPageLen)
		}
		for i := 0; i < n; i++ {
			em := emission{lo: key(), value: "v" + strconv.Itoa(pos) + "." + strconv.Itoa(i)}
			if hasHot && rng.Intn(2) == 0 {
				em.lo = hot
			}
			em.hi = em.lo
			if rng.Intn(4) == 0 {
				em.hi += rng.Int63n(12)
			}
			c.plan[pos] = append(c.plan[pos], em)
		}
	}
	return c
}

// reference is the shuffle by definition: every value under every key its
// emission covers.
func (c shuffleCase) reference() map[int64][]string {
	ref := make(map[int64][]string)
	for _, ems := range c.plan {
		for _, em := range ems {
			for k := em.lo; k <= em.hi; k++ {
				ref[k] = append(ref[k], em.value)
			}
		}
	}
	for _, vs := range ref {
		slices.Sort(vs)
	}
	return ref
}

// run shuffles the case through an engine and returns what each reduce key
// received, sorted, and the job's metrics.
func (c shuffleCase) run(t *testing.T) (map[int64][]string, *Metrics) {
	t.Helper()
	var mu sync.Mutex
	got := make(map[int64][]string)
	job := Job{
		Name:   "prop",
		Inputs: []Input{{Count: len(c.plan)}},
		MapAt: func(_, pos int, emit Emitter) error {
			for _, em := range c.plan[pos] {
				if em.isRange() {
					emit.EmitRange(em.lo, em.hi, em.value)
				} else {
					emit.Emit(em.lo, em.value)
				}
			}
			return nil
		},
		Reduce: func(key int64, values []string, _ func(string) error) error {
			vs := slices.Clone(values)
			slices.Sort(vs)
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[key]; dup {
				return fmt.Errorf("key %d reduced twice", key)
			}
			got[key] = vs
			return nil
		},
	}
	m, err := NewEngine(Config{Store: dfs.NewMem(), Workers: c.workers, SpillPairThreshold: c.spill}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	return got, m
}

// TestShuffleDeliversTheEmittedMultiset: whatever the job, every reduce key
// receives exactly the values emitted to it — none lost at a page turn, in a
// range expansion or in a spilled run, and none placed under a neighbour's
// key.
func TestShuffleDeliversTheEmittedMultiset(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		c := randomShuffleCase(rand.New(rand.NewSource(seed)))
		want := c.reference()
		got, m := c.run(t)
		label := fmt.Sprintf("seed %d (%d workers, spill %d, %d positions)", seed, c.workers, c.spill, len(c.plan))
		if len(got) != len(want) || m.DistinctKeys != len(want) {
			t.Fatalf("%s: %d keys reduced, metrics say %d, want %d", label, len(got), m.DistinctKeys, len(want))
		}
		pairs := int64(0)
		for k, vs := range want {
			if !slices.Equal(got[k], vs) {
				at := 0
				for at < len(vs) && at < len(got[k]) && got[k][at] == vs[at] {
					at++
				}
				t.Fatalf("%s: key %d received %d values, want %d; sorted, they part at %d: %q, want %q",
					label, k, len(got[k]), len(vs), at, got[k][at:min(at+1, len(got[k]))], vs[at:min(at+1, len(vs))])
			}
			if m.ReducerPairs[k] != int64(len(vs)) {
				t.Fatalf("%s: ReducerPairs[%d] = %d, want %d", label, k, m.ReducerPairs[k], len(vs))
			}
			pairs += int64(len(vs))
		}
		if m.IntermediatePairs != pairs {
			t.Fatalf("%s: IntermediatePairs = %d, want %d", label, m.IntermediatePairs, pairs)
		}
	}
}

// TestPagesComeBackZeroed: after a job — one that ended well, one whose map
// failed with pages in every worker's log — each page the pool hands
// out is all zero: no header is left to keep a relation's slab alive while
// the page waits for its next job.
func TestPagesComeBackZeroed(t *testing.T) {
	// With the collector off nothing empties the pool, and on one worker
	// every page goes back to the P that takes them below.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var received atomic.Int64
	e := NewEngine(Config{Store: dfs.NewMem(), Workers: 1})
	if _, err := e.Run(pointsJob(20*emitPageLen, 16, false, &received)); err != nil {
		t.Fatal(err)
	}
	failing := pointsJob(20*emitPageLen, 16, false, &received)
	emitAt := failing.MapAt
	failing.MapAt = func(tag, pos int, emit Emitter) error {
		if pos == 19*emitPageLen {
			return fmt.Errorf("position %d is bad", pos)
		}
		return emitAt(tag, pos, emit)
	}
	if _, err := e.Run(failing); err == nil {
		t.Fatal("the failing job ran")
	}
	var taken []*emitPage
	for i := 0; i < 40; i++ {
		p := takePage()
		if *p != (emitPage{}) {
			t.Fatalf("page %d out of the pool still holds emissions", i)
		}
		taken = append(taken, p)
	}
	for _, p := range taken {
		releasePage(p)
	}
}

// shuffleAllocBound is how many objects a job may allocate whatever it
// emits: the engine's per-job, per-worker and per-key state — about 160 on
// two workers and 16 keys — and nothing per pair.
const shuffleAllocBound = 400

// TestShuffleAllocsDoNotFollowEmissions: once a first job has filled the page
// pool, a job of 33 000 emissions over 16 keys allocates within the bound,
// and ten times the emissions cost next to nothing more — untraced, and with
// a tracer attached, whose spans are per task and per key, not per pair.
func TestShuffleAllocsDoNotFollowEmissions(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var received atomic.Int64
	for _, arm := range []struct {
		name   string
		tracer *obs.Tracer
	}{{"untraced", nil}, {"traced", obs.New(obs.Options{})}} {
		t.Run(arm.name, func(t *testing.T) {
			e := NewEngine(Config{Store: dfs.NewMem(), Workers: 2, Tracer: arm.tracer})
			run := func(n int) float64 {
				job := pointsJob(n, 16, false, &received)
				return testing.AllocsPerRun(3, func() {
					if _, err := e.Run(job); err != nil {
						t.Fatal(err)
					}
				})
			}
			large, small := run(33_000), run(3_300)
			t.Logf("objects per job: %.0f for 33000 emissions, %.0f for 3300", large, small)
			if large > shuffleAllocBound {
				t.Errorf("a job of 33000 emissions allocates %.0f objects, bound %d", large, shuffleAllocBound)
			}
			// What grows with the input is a log's list of pages, by doubling,
			// and a lane's ring of spans, by doubling too.
			if perEmission := (large - small) / (33_000 - 3_300); perEmission > 0.01 {
				t.Errorf("%.4f objects per extra emission", perEmission)
			}
		})
	}
}
