package intervaljoin

import (
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	eng := MustNewEngine(EngineOptions{Workers: 2})
	q, err := ParseQuery("R1 overlaps R2 and R2 overlaps R3")
	if err != nil {
		t.Fatal(err)
	}
	r1 := FromIntervals("R1", []Interval{NewInterval(0, 10), NewInterval(40, 50)})
	r2 := FromIntervals("R2", []Interval{NewInterval(5, 20), NewInterval(45, 60)})
	r3 := FromIntervals("R3", []Interval{NewInterval(15, 30), NewInterval(55, 70)})
	res, err := eng.Run(q, []*Relation{r1, r2, r3}, RunOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("output = %v, want 2 chains", res.Tuples)
	}
	oracle, err := eng.Oracle(q, []*Relation{r1, r2, r3}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Tuples) != len(res.Tuples) {
		t.Fatalf("oracle %d vs run %d", len(oracle.Tuples), len(res.Tuples))
	}
}

func TestAlgorithmRegistry(t *testing.T) {
	names := AlgorithmNames()
	if len(names) != 12 {
		t.Fatalf("registered algorithms = %d (%v), want 12", len(names), names)
	}
	for _, n := range names {
		alg, err := AlgorithmByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Name() != n {
			t.Errorf("algorithm %q reports name %q", n, alg.Name())
		}
	}
	if _, err := AlgorithmByName("quantum"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestProvablyEmptyExported(t *testing.T) {
	q, _ := ParseQuery("A before B and B before C and C before A")
	if !ProvablyEmpty(q) {
		t.Fatal("before-cycle not proven empty")
	}
	q2, _ := ParseQuery("A overlaps B")
	if ProvablyEmpty(q2) {
		t.Fatal("satisfiable query proven empty")
	}
	// Point-satisfiable but proper-impossible.
	q3, _ := ParseQuery("A equals B and A meets B")
	if ProvablyEmpty(q3) || !ProvablyEmptyProper(q3) {
		t.Fatal("proper/point distinction wrong")
	}
}

func TestRunShortCircuitsProvablyEmpty(t *testing.T) {
	eng := MustNewEngine(EngineOptions{Workers: 2})
	q, _ := ParseQuery("A before B and B before C and C before A")
	rels := []*Relation{
		FromIntervals("A", []Interval{NewInterval(0, 1)}),
		FromIntervals("B", []Interval{NewInterval(5, 6)}),
		FromIntervals("C", []Interval{NewInterval(9, 10)}),
	}
	res, err := eng.Run(q, rels, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 || res.Algorithm != "provably-empty" {
		t.Fatalf("result = %+v", res)
	}
	if res.Metrics.IntermediatePairs != 0 {
		t.Fatal("short circuit still shuffled data")
	}
	// Binding errors still surface.
	if _, err := eng.Run(q, rels[:2], RunOptions{}); err == nil {
		t.Fatal("missing binding accepted on the short-circuit path")
	}
}

func TestPlanExported(t *testing.T) {
	q, _ := ParseQuery("R1 before R2 and R2 before R3")
	if Plan(q).Name() != "all-matrix" {
		t.Fatalf("Plan = %s", Plan(q).Name())
	}
}

func TestRunWithExplicitAlgorithm(t *testing.T) {
	eng := MustNewEngine(EngineOptions{Workers: 2})
	q, _ := ParseQuery("R1 overlaps R2")
	r1 := FromIntervals("R1", []Interval{NewInterval(0, 10)})
	r2 := FromIntervals("R2", []Interval{NewInterval(5, 20)})
	for _, name := range []string{"two-way", "all-rep", "2way-cascade", "rccis", "all-seq-matrix", "gen-matrix"} {
		alg, err := AlgorithmByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunWith(alg, q, []*Relation{r1, r2}, RunOptions{Partitions: 3, PartitionsPerDim: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("%s: output = %v", name, res.Tuples)
		}
	}
}

func TestMultiAttributeThroughAPI(t *testing.T) {
	eng := MustNewEngine(EngineOptions{Workers: 2})
	q, err := ParseQuery("city.len overlaps river.len and city.breadth overlaps river.breadth")
	if err != nil {
		t.Fatal(err)
	}
	city := NewRelation(NewSchema("city", "len", "breadth"))
	city.Append(NewInterval(100, 120), NewInterval(100, 110)) // building at (100,100), 20x10
	city.Append(NewInterval(500, 520), NewInterval(500, 510))
	// Allen's overlaps is directional: the city must start first on both
	// axes and the river must extend past it.
	river := NewRelation(NewSchema("river", "len", "breadth"))
	river.Append(NewInterval(105, 125), NewInterval(102, 115))
	res, err := eng.Run(q, []*Relation{city, river}, RunOptions{Partitions: 4, PartitionsPerDim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 || res.Tuples[0][0] != 0 {
		t.Fatalf("spatial join output = %v", res.Tuples)
	}
}
