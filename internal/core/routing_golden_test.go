package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

var updateRoutingGolden = flag.Bool("update-routing-golden", false,
	"rewrite testdata/routing_golden.txt from the current tree")

const routingGoldenFile = "testdata/routing_golden.txt"

// TestRoutingGolden pins communication cost — the paper's central measure —
// for every algorithm: per cycle the records mapped, the logical and
// physical pairs shuffled, the reduce keys that received data and the
// records written; per run the cycle count and the replicated / pruned
// interval statistics. The oracle suites only compare answers, so a change
// that sends tuples to other reducers (or to more of them) and still dedups
// correctly passes all of them; it does not pass this. Nor does a chain
// that runs a cycle before its last over no input. Inputs are seeded
// Zipf-skewed relations so the adaptive modes really split partitions.
//
// Regenerate with `go test ./internal/core -run TestRoutingGolden
// -update-routing-golden` only when a change is meant to alter routing. One
// kind of change moves numbers without altering routing: the adaptive plan
// spreads a split partition's records over its virtual reducers by a hash of
// the record's bytes (rowOf), so a new record encoding — the last was the
// move from text to fixed-width binary — lands them on other rows. That may
// change `phys` and `keys` on the adaptive and force-split lines and nothing
// else: `cycles`, `replicated`, `pruned`, `in`, `pairs` and `out` of every
// line must come out byte-identical (compare with those two fields cut out,
// `sed -E 's/ (phys|keys)=[0-9]+//g'`, before committing a regenerated file).
func TestRoutingGolden(t *testing.T) {
	var got []string
	rng := rand.New(rand.NewSource(1606))
	for _, qc := range routingQueries {
		q := query.MustParse(qc.q)
		rels := routingRelations(rng, q)
		algs := Algorithms(q)
		if qc.class == "sequence" {
			algs = append(algs, AllMatrix{DisableConsistencyFilter: true}, AllMatrix{BroadcastAllCells: true})
		}
		for _, alg := range algs {
			for _, mode := range routingModes {
				res := runRouting(t, alg, q, rels, mode.mut)
				// A cycle before the last that maps nothing decides
				// nothing, and does not run.
				for i, m := range res.PerCycle {
					if i < len(res.PerCycle)-1 && m.MapInputRecords == 0 {
						t.Errorf("%s on %q (%s): cycle %d of %d maps nothing", alg.Name(), qc.q, mode.name, i+1, len(res.PerCycle))
					}
				}
				got = append(got, routingLine(qc.class, alg.Name(), mode.name, res))
			}
		}
	}

	if *updateRoutingGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routingGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(routingGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("routing changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// TestSequenceAliasesRunAllMatrix: on a sequence query every component is
// one vertex, with nothing to mark or prune, so a named All-Seq-Matrix or
// PASM runs All-Matrix's one cycle. Algorithms(q) therefore lists All-Matrix
// alone; this holds the two names to its ids, per-cycle counts, replicated
// and pruned on TestRoutingGolden's sequence queries and inputs, in each of
// its modes.
func TestSequenceAliasesRunAllMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1606))
	for _, qc := range routingQueries {
		q := query.MustParse(qc.q)
		rels := routingRelations(rng, q) // drawn for every query, so the inputs are the golden's
		if q.Classify() != query.Sequence {
			continue
		}
		for _, mode := range routingModes {
			want := runRouting(t, AllMatrix{}, q, rels, mode.mut)
			for _, alg := range []Algorithm{SeqMatrix{}, PASM{}} {
				got := runRouting(t, alg, q, rels, mode.mut)
				if !slices.Equal(got.IDs, want.IDs) {
					t.Errorf("%s on %q (%s): %d rows, All-Matrix %d, or the ids differ", alg.Name(), qc.q, mode.name, len(got.Tuples), len(want.Tuples))
				}
				if g, w := routingLine(qc.class, "", mode.name, got), routingLine(qc.class, "", mode.name, want); g != w {
					t.Errorf("%s on %q (%s) routes unlike All-Matrix:\n got  %s\n want %s", alg.Name(), qc.q, mode.name, g, w)
				}
			}
		}
	}
}

// routingModes are the plans every routing run is pinned under.
var routingModes = []struct {
	name string
	mut  func(*Options)
}{
	{"default", func(*Options) {}},
	{"adaptive", func(o *Options) { o.Adaptive = true }},
	{"force-split", func(o *Options) { o.Adaptive, o.SplitThreshold, o.MaxVirtual = true, 0.01, 3 }},
}

// runRouting runs alg on q's relations at the routing suites' partition
// counts, with mut applied to the options, on an engine of four workers.
func runRouting(t *testing.T, alg Algorithm, q *query.Query, rels []*relation.Relation, mut func(*Options)) *Result {
	t.Helper()
	opts := Options{Partitions: 6, PartitionsPerDim: 4}
	mut(&opts)
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4})
	ctx, err := NewContext(engine, q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(ctx)
	if err != nil {
		t.Fatalf("%s on %q: %v", alg.Name(), q, err)
	}
	return res
}

// routingQueries are TestRoutingGolden's queries, one or two per class.
var routingQueries = []struct{ class, q string }{
	{"colocation", "R1 overlaps R2 and R2 contains R3"},
	{"colocation-2way", "R1 overlaps R2"},
	{"sequence", "R1 before R2 and R2 before R3"},
	{"sequence-2way", "R1 before R2"},
	{"hybrid", "R1 overlaps R2 and R2 before R3 and R3 overlaps R4"},
	{"general", "R1.I before R2.I and R1.I overlaps R3.I and R1.A = R3.A and R2.B = R3.B"},
}

// routingRelations draws q's relations as TestRoutingGolden does: Zipf-skewed
// first attributes, and small points for any further ones.
func routingRelations(rng *rand.Rand, q *query.Query) []*relation.Relation {
	rels := make([]*relation.Relation, len(q.Relations))
	for i, s := range q.Relations {
		rels[i] = skewedRelation(rng, s.Name, 40, 150, 30)
		if s.Arity() > 1 {
			r := relation.New(s)
			for _, tu := range rels[i].Tuples {
				attrs := []interval.Interval{tu.Attrs[0]}
				for len(attrs) < s.Arity() {
					attrs = append(attrs, interval.PointInterval(rng.Int63n(4)))
				}
				r.Append(attrs...)
			}
			rels[i] = r
		}
	}
	return rels
}

// routingLine renders one run's pinned counts.
func routingLine(class, alg, mode string, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s: cycles=%d replicated=%d pruned=", class, alg, mode,
		res.Metrics.Cycles, res.ReplicatedIntervals)
	rels := make([]int, 0, len(res.PrunedIntervals))
	for r := range res.PrunedIntervals {
		rels = append(rels, r)
	}
	sort.Ints(rels)
	b.WriteByte('[')
	for i, r := range rels {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", r, res.PrunedIntervals[r])
	}
	b.WriteByte(']')
	for i, m := range res.PerCycle {
		fmt.Fprintf(&b, " | c%d in=%d pairs=%d phys=%d keys=%d out=%d", i+1,
			m.MapInputRecords, m.IntermediatePairs, m.PhysicalPairs, m.DistinctKeys, m.OutputRecords)
	}
	return b.String()
}
