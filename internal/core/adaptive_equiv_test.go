package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Adaptive-plan equivalence: the skew-aware planner only rearranges the
// reduce-key layout (boundaries, virtual reducers, mid-job re-splits) —
// it must never change WHICH tuples come out. Virtual splitting and
// re-splitting do reorder output lines across (sub-)reducers, so these
// tests compare the sorted line sets plus the logical counts, unlike the
// range-emit tests' exact positional comparison.

// requireSameOutputSet asserts both runs produced the same multiset of
// output lines and agree on every logical statistic.
func requireSameOutputSet(t *testing.T, base, adapt *Result, baseLines, adaptLines []string) {
	t.Helper()
	if len(baseLines) != len(adaptLines) {
		t.Fatalf("output has %d lines uniform, %d adaptive", len(baseLines), len(adaptLines))
	}
	bs := append([]string(nil), baseLines...)
	as := append([]string(nil), adaptLines...)
	sort.Strings(bs)
	sort.Strings(as)
	for i := range bs {
		if bs[i] != as[i] {
			t.Fatalf("sorted output line %d differs:\nuniform:  %q\nadaptive: %q", i, bs[i], as[i])
		}
	}
	if len(base.Tuples) != len(adapt.Tuples) {
		t.Errorf("tuples: %d uniform, %d adaptive", len(base.Tuples), len(adapt.Tuples))
	}
	if base.Metrics.OutputRecords != adapt.Metrics.OutputRecords {
		t.Errorf("output records: %d uniform, %d adaptive",
			base.Metrics.OutputRecords, adapt.Metrics.OutputRecords)
	}
}

// adaptiveVariants enumerates the plan perturbations every algorithm must
// be invariant under. forceSplit drives SplitThreshold to near zero so
// even balanced partitions expand into virtual reducers; forceResplit
// re-shards every reduce task at run time.
var adaptiveVariants = []struct {
	name string
	mut  func(*Options, *mr.Config)
}{
	{"adaptive", func(o *Options, _ *mr.Config) { o.Adaptive = true }},
	{"equidepth", func(o *Options, _ *mr.Config) { o.EquiDepth = true }},
	{"force-split", func(o *Options, _ *mr.Config) {
		o.Adaptive = true
		o.SplitThreshold = 0.01
		o.MaxVirtual = 3
	}},
	{"force-resplit", func(_ *Options, c *mr.Config) { c.ResplitPairThreshold = 1 }},
}

// TestAdaptiveMatchesUniformAllenPredicates joins two Zipf-skewed
// relations under each of the thirteen Allen predicates, once with the
// uniform unsplit plan and once per adaptive variant, requiring the same
// output set.
func TestAdaptiveMatchesUniformAllenPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r1 := skewedRelation(rng, "R1", 80, 160, 35)
	r2 := skewedRelation(rng, "R2", 80, 160, 35)
	rels := []*relation.Relation{r1, r2}
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		q := query.MustParse(fmt.Sprintf("R1 %s R2", p))
		base := Options{Partitions: 8}
		baseRes, baseLines := runWithConfig(t, TwoWay{}, q, rels, base, mr.Config{})
		for _, v := range adaptiveVariants {
			t.Run(p.String()+"/"+v.name, func(t *testing.T) {
				opts, cfg := base, mr.Config{}
				v.mut(&opts, &cfg)
				res, lines := runWithConfig(t, TwoWay{}, q, rels, opts, cfg)
				requireSameOutputSet(t, baseRes, res, baseLines, lines)
			})
		}
	}
}

// TestAdaptiveMatchesUniformAlgorithms covers every algorithm and query
// class on the in-memory shuffle and on a spilling engine — the adaptive
// key layout must be invisible on both.
func TestAdaptiveMatchesUniformAlgorithms(t *testing.T) {
	cases := []struct {
		name  string
		alg   Algorithm
		query string
	}{
		{"two-way-seq", TwoWay{}, "R1 before R2"},
		{"all-rep-coloc", AllRep{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-rep-seq", AllRep{}, "R1 before R2 and R2 before R3"},
		{"all-matrix", AllMatrix{}, "R1 before R2 and R2 before R3"},
		{"cascade", Cascade{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"cascade-matrix", Cascade{MatrixSteps: true}, "R1 before R2 and R2 before R3"},
		{"rccis", RCCIS{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-seq-matrix", SeqMatrix{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"all-seq-matrix-hybrid", SeqMatrix{}, "R1 before R2 and R1 overlaps R3"},
		{"fcts", FCTS{}, "R1 overlaps R2 and R2 overlaps R3"},
		{"fcts-hybrid", FCTS{}, "R1 before R2 and R1 overlaps R3"},
		{"pasm-hybrid", PASM{}, "R1 before R2 and R1 overlaps R3"},
		{"gen-matrix", GenMatrix{}, "R1 before R2 and R1 overlaps R3"},
	}
	modes := []struct {
		name  string
		spill int
	}{
		{"pipelined", 0},
		{"spilled", 200},
	}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range cases {
		q := query.MustParse(tc.query)
		rels := make([]*relation.Relation, len(q.Relations))
		for i, s := range q.Relations {
			rels[i] = skewedRelation(rng, s.Name, 40, 150, 30)
		}
		for _, mode := range modes {
			base := Options{Partitions: 6, PartitionsPerDim: 4}
			baseRes, baseLines := runWithConfig(t, tc.alg, q, rels, base,
				mr.Config{SpillPairThreshold: mode.spill})
			for _, v := range adaptiveVariants {
				t.Run(tc.name+"/"+mode.name+"/"+v.name, func(t *testing.T) {
					opts, cfg := base, mr.Config{SpillPairThreshold: mode.spill}
					v.mut(&opts, &cfg)
					res, lines := runWithConfig(t, tc.alg, q, rels, opts, cfg)
					requireSameOutputSet(t, baseRes, res, baseLines, lines)
				})
			}
		}
	}
}

// TestAdaptiveSplitsActuallyFire guards the tests above against becoming
// vacuous: the force-split variant must actually expand partitions into
// virtual reducers (more distinct reduce keys than partitions), and on
// the Zipf input the default adaptive plan must split at least one hot
// partition.
func TestAdaptiveSplitsActuallyFire(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rels := []*relation.Relation{
		skewedRelation(rng, "R1", 80, 160, 35),
		skewedRelation(rng, "R2", 80, 160, 35),
	}
	q := query.MustParse("R1 overlaps R2")
	opts := Options{Partitions: 8, Adaptive: true, SplitThreshold: 0.01, MaxVirtual: 3}
	res, _ := runWithConfig(t, TwoWay{}, q, rels, opts, mr.Config{})
	if res.Metrics.DistinctKeys <= opts.Partitions {
		t.Fatalf("force-split run used %d reduce keys for %d partitions — no virtual split fired",
			res.Metrics.DistinctKeys, opts.Partitions)
	}
	opts = Options{Partitions: 8, Adaptive: true}
	res, _ = runWithConfig(t, TwoWay{}, q, rels, opts, mr.Config{})
	if res.Metrics.DistinctKeys <= opts.Partitions {
		t.Fatalf("adaptive run on Zipf input used %d reduce keys for %d partitions — planner never split",
			res.Metrics.DistinctKeys, opts.Partitions)
	}
}

// skewedRelation draws starts from a Zipf distribution over the time
// range so uniform boundaries produce genuinely hot partitions, giving
// the adaptive planner something to act on.
func skewedRelation(rng *rand.Rand, name string, n int, tmax, lmax int64) *relation.Relation {
	z := rand.NewZipf(rng, 1.2, 1, uint64(tmax-1))
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		s := int64(z.Uint64())
		ivs[i] = interval.New(s, s+1+rng.Int63n(lmax))
	}
	return relation.FromIntervals(name, ivs)
}
