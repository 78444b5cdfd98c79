package core

import (
	"math/rand"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// TestInLineHasNoSizeCap: the rule Engine.Run goes in line by holds at any
// size — a zero-option run over 2^17 tuples joins in line, over ranges for
// the engine's workers, and has the planner's job's rows — and never with an
// option set or with a relation that no earlier relation constrains.
func TestInLineHasNoSizeCap(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	const n = 1 << 17
	// batch-sparse's density: a start every 100 points in each relation.
	rng := rand.New(rand.NewSource(17))
	k := n / 3
	rels := []*relation.Relation{
		randomRelation(rng, "R1", k, int64(k)*100, 100),
		randomRelation(rng, "R2", k, int64(k)*100, 100),
		randomRelation(rng, "R3", n-2*k, int64(k)*100, 100),
	}
	ctx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2}), q, rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	why := InLine(ctx)
	if why == nil || why.Tuples != n || why.Ranges != k/minRange {
		t.Fatalf("%d tuples, first level %d: in line %+v, want %d ranges", n, k, why, k/minRange)
	}
	got, err := JoinInLine(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Plan(q, false).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Tuples) == 0 {
		t.Fatal("the join has no row; the comparison checks nothing")
	}
	if err := rowsDiffer(got, want); err != nil {
		t.Errorf("in line against the job: %v", err)
	}
	if inLine(q, Options{Partitions: 16}) {
		t.Error("an option set runs in line")
	}
	for qs, want := range map[string]bool{
		"R1 overlaps R2 and R3 overlaps R4 and R4 overlaps R1": false,
		"R1 overlaps R2 and R4 overlaps R1 and R3 overlaps R4": true,
		"R1 overlaps R2 and R3 before R1":                      true,
		"R1.I overlaps R2.I and R3.A = R2.A":                   true,
		"R1 before R2 and R3 meets R4 and R2 overlaps R4":      false,
	} {
		if got := inLine(query.MustParse(qs), Options{}); got != want {
			t.Errorf("%q: in line %v, want %v", qs, got, want)
		}
	}
}
