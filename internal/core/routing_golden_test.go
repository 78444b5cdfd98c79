package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
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
// correctly passes all of them; it does not pass this. Inputs are seeded
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
	modes := []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(*Options) {}},
		{"adaptive", func(o *Options) { o.Adaptive = true }},
		{"force-split", func(o *Options) { o.Adaptive, o.SplitThreshold, o.MaxVirtual = true, 0.01, 3 }},
	}

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
			for _, mode := range modes {
				opts := Options{Partitions: 6, PartitionsPerDim: 4}
				mode.mut(&opts)
				engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4})
				ctx, err := NewContext(engine, q, rels, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := alg.Run(ctx)
				if err != nil {
					t.Fatalf("%s on %q (%s): %v", alg.Name(), qc.q, mode.name, err)
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
