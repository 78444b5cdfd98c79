package core

import (
	"flag"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

var updateBroadcastGolden = flag.Bool("update-broadcast-golden", false,
	"rewrite testdata/broadcast_golden.txt from the current tree")

// broadcastGoldenFile pins the named algorithms' per-cycle counts on the
// broadcast suite's inputs. It was written by the tree before the planner
// could broadcast, so an equal line says the named path routes as it did.
const broadcastGoldenFile = "testdata/broadcast_golden.txt"

// broadcastCase is one input of the broadcast suite: a query and relations
// on which the planner must take the relations named in whole out of its
// product space, in that order, and the named algorithm of the same class.
type broadcastCase struct {
	name  string
	q     *query.Query
	rels  []*relation.Relation
	named Algorithm
	whole []string
}

// broadcastCases builds the suite's inputs from one seed: the hybrid shape
// R1 p R2 and R2 before R3 for every colocation p and the sequence shape
// R1 p R2 and R2 p' R3 for every pair of sequence predicates, R3 small in
// both; two small relations, which leave a one-dimensional residual; and
// one case with no small relation, where nothing may be taken out.
func broadcastCases() []broadcastCase {
	rng := rand.New(rand.NewSource(25))
	mk := func(name, q string, named Algorithm, small ...string) broadcastCase {
		c := broadcastCase{name: name, q: query.MustParse(q), named: named, whole: small}
		for _, s := range c.q.Relations {
			n := 80
			if slices.Contains(small, s.Name) {
				n = 4
			}
			c.rels = append(c.rels, randomRelation(rng, s.Name, n, 100, 10))
		}
		return c
	}
	var cases []broadcastCase
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		if p.IsColocation() {
			cases = append(cases, mk("hybrid-"+p.String(), "R1 "+p.String()+" R2 and R2 before R3", SeqMatrix{}, "R3"))
		}
	}
	for _, p := range []interval.Predicate{interval.Before, interval.After} {
		for _, p2 := range []interval.Predicate{interval.Before, interval.After} {
			cases = append(cases, mk("sequence-"+p.String()+"-"+p2.String(),
				"R1 "+p.String()+" R2 and R2 "+p2.String()+" R3", AllMatrix{}, "R3"))
		}
	}
	return append(cases,
		mk("hybrid-two-small", "R1 overlaps R2 and R2 before R3 and R3 before R4", SeqMatrix{}, "R3", "R4"),
		mk("sequence-two-small", "R1 before R2 and R2 before R3", AllMatrix{}, "R2", "R3"),
		mk("hybrid-none-small", "R1 overlaps R2 and R2 before R3", SeqMatrix{}),
	)
}

// broadcastModes are the boundaries the suite runs under.
var broadcastModes = []struct {
	name string
	opts Options
}{
	{"uniform", Options{Partitions: 6, PartitionsPerDim: 4}},
	{"equi-depth", Options{Partitions: 6, PartitionsPerDim: 4, EquiDepth: true}},
}

// TestBroadcastEquivalence is the planner's broadcast against the oracle.
// On every case and both boundary sources the planner's algorithm must
// return core.Reference's rows id for id, its plan must name exactly the
// relations the case makes small — so a rule that never fires cannot pass
// — and the counts it reports must add up (Σ ReducerPairs ==
// IntermediatePairs, per cycle and overall). The named algorithm on the
// same inputs must route as it did before the planner could broadcast: its
// per-cycle counts are the golden file's.
func TestBroadcastEquivalence(t *testing.T) {
	var named []string
	for _, c := range broadcastCases() {
		for _, mode := range broadcastModes {
			label := c.name + " " + mode.name
			want, _ := runSingle(t, Reference{}, c.q, c.rels, mode.opts)
			if len(want.Tuples) == 0 {
				t.Fatalf("%s: the oracle has no rows; the case checks nothing", label)
			}
			alg := Plan(c.q, false)
			if alg.Name() != c.named.Name() {
				t.Fatalf("%s: Plan chose %s, the case is for %s", label, alg.Name(), c.named.Name())
			}
			got, _ := runSingle(t, alg, c.q, c.rels, mode.opts)
			if !slices.Equal(got.IDs, want.IDs) {
				t.Errorf("%s: the planner's %s returned %d rows, the oracle %d, or other ids", label, alg.Name(), len(got.Tuples), len(want.Tuples))
			}
			var whole []string
			if p := got.Metrics.Plan; p != nil {
				for _, b := range p.Broadcast {
					whole = append(whole, b.Relation)
					if b.ShipPairs > b.OtherTuples {
						t.Errorf("%s: %s taken out at %d pairs against %d other tuples", label, b.Relation, b.ShipPairs, b.OtherTuples)
					}
				}
			}
			if !slices.Equal(whole, c.whole) {
				t.Errorf("%s: the plan takes out %v, want %v", label, whole, c.whole)
			}
			for i, m := range append([]*mr.Metrics{got.Metrics}, got.PerCycle...) {
				if sum := sumPairs(m); sum != m.IntermediatePairs {
					t.Errorf("%s: metrics %d: Σ ReducerPairs = %d, IntermediatePairs = %d", label, i, sum, m.IntermediatePairs)
				}
			}

			res, _ := runSingle(t, c.named, c.q, c.rels, mode.opts)
			if res.Metrics.Plan != nil {
				t.Errorf("%s: the named %s reports a plan: %+v", label, c.named.Name(), res.Metrics.Plan)
			}
			named = append(named, routingLine(c.name, c.named.Name(), mode.name, res))
		}
	}
	if *updateBroadcastGolden {
		if err := os.WriteFile(broadcastGoldenFile, []byte(strings.Join(named, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(broadcastGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n"); !slices.Equal(named, want) {
		for i := range min(len(named), len(want)) {
			if named[i] != want[i] {
				t.Errorf("named routing changed:\n got  %s\n want %s", named[i], want[i])
			}
		}
		if len(named) != len(want) {
			t.Errorf("%d named runs, golden file has %d", len(named), len(want))
		}
	}
}

func sumPairs(m *mr.Metrics) int64 {
	var sum int64
	for _, n := range m.ReducerPairs {
		sum += n
	}
	return sum
}

// TestBroadcastShipsToEveryTask pins how a broadcast is counted: as what a
// cluster would ship, every tuple of a relation held whole to every reduce
// task that ran in the join, one pair and one record's bytes each. The
// shape makes the rest exact: R2 and R3 are small enough to leave All-Matrix
// a one-dimensional residual over R1, where every R1 tuple is projected to
// the one cell of its start partition.
func TestBroadcastShipsToEveryTask(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := query.MustParse("R1 before R2 and R2 before R3")
	rels := []*relation.Relation{
		randomRelation(rng, "R1", 200, 1000, 20),
		randomRelation(rng, "R2", 5, 1000, 20),
		randomRelation(rng, "R3", 3, 1000, 20),
	}
	opts := Options{PartitionsPerDim: 6}
	ctx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2}), q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Plan(q, false).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Plan == nil || len(res.Metrics.Plan.Broadcast) != 2 {
		t.Fatalf("plan %+v: want R2 and R3 taken out", res.Metrics.Plan)
	}
	part, _, err := ctx.boundaries(6)
	if err != nil {
		t.Fatal(err)
	}
	const whole = 5 + 3
	record := int64(memberLen(1) + 8)
	want := map[int64]int64{}
	for _, tu := range rels[0].Tuples {
		want[int64(part.IndexOf(tu.Attrs[0].Start))]++
	}
	tasks := int64(len(want))
	for k := range want {
		want[k] += whole
	}
	join := res.PerCycle[len(res.PerCycle)-1]
	if len(join.ReducerPairs) != len(want) {
		t.Fatalf("%d reduce tasks ran, want one per start partition of R1: %d", len(join.ReducerPairs), len(want))
	}
	for k, n := range want {
		if join.ReducerPairs[k] != n {
			t.Errorf("task %d received %d pairs, want its R1 tuples and %d broadcast ones: %d", k, join.ReducerPairs[k], whole, n)
		}
	}
	pairs := int64(rels[0].Len()) + tasks*whole
	for _, m := range []*mr.Metrics{join, res.Metrics} {
		if m.IntermediatePairs != pairs || m.PhysicalPairs != pairs {
			t.Errorf("%s: %d logical and %d physical pairs, want %d", m.Job, m.IntermediatePairs, m.PhysicalPairs, pairs)
		}
		if m.IntermediateBytes != pairs*record || m.PhysicalBytes != pairs*record {
			t.Errorf("%s: %d logical and %d physical bytes, want %d", m.Job, m.IntermediateBytes, m.PhysicalBytes, pairs*record)
		}
		if sum := sumPairs(m); sum != m.IntermediatePairs {
			t.Errorf("%s: Σ ReducerPairs = %d, IntermediatePairs = %d", m.Job, sum, m.IntermediatePairs)
		}
	}
}
