package interval

import (
	"math"
	"math/rand"
	"testing"
)

func TestMakeUniformValidation(t *testing.T) {
	if _, err := MakeUniform(0, 100, 0); err == nil {
		t.Error("0 partitions accepted")
	}
	if _, err := MakeUniform(10, 10, 4); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := MakeUniform(20, 10, 4); err == nil {
		t.Error("inverted range accepted")
	}
	p, err := MakeUniform(0, 3, 10) // more partitions than points
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("partition count = %d, want capped 3", p.Len())
	}
}

func TestUniformCoversRangeExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		t0 := rng.Int63n(100)
		tn := t0 + 1 + rng.Int63n(1000)
		n := 1 + rng.Intn(20)
		p := NewUniform(t0, tn, n)
		gt0, gtn := p.Range()
		if gt0 != t0 || gtn != tn {
			t.Fatalf("Range = [%d,%d), want [%d,%d)", gt0, gtn, t0, tn)
		}
		// Partitions tile the range with no gaps or overlaps.
		prevEnd := t0 - 1
		for j := 0; j < p.Len(); j++ {
			pi := p.PartitionInterval(j)
			if pi.Start != prevEnd+1 {
				t.Fatalf("partition %d starts at %d, want %d", j, pi.Start, prevEnd+1)
			}
			if pi.End < pi.Start {
				t.Fatalf("partition %d empty: %v", j, pi)
			}
			prevEnd = pi.End
		}
		if prevEnd != tn-1 {
			t.Fatalf("last partition ends at %d, want %d", prevEnd, tn-1)
		}
	}
}

// TestUniformOverTheWholeLine: a range wider than MaxInt64 points tiles
// like any other, and a range that fits in int64 gets the boundaries the
// int64 arithmetic t0 + i·((tn − t0)/n) gives it.
func TestUniformOverTheWholeLine(t *testing.T) {
	for _, r := range [][2]Point{{math.MinInt64, math.MaxInt64}, {-(1 << 62) - 1, 1<<62 + 1}, {math.MinInt64, 0}} {
		for _, n := range []int{1, 3, 16} {
			p := NewUniform(r[0], r[1], n)
			if t0, tn := p.Range(); t0 != r[0] || tn != r[1] || p.Len() != n {
				t.Fatalf("NewUniform(%d, %d, %d) = %v", r[0], r[1], n, p)
			}
			for i := 1; i <= n; i++ {
				if p.bounds[i] <= p.bounds[i-1] {
					t.Fatalf("NewUniform(%d, %d, %d): boundaries not increasing: %v", r[0], r[1], n, p)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		t0 := rng.Int63() - math.MaxInt64/2
		tn := t0 + 1 + rng.Int63n(math.MaxInt64-max(t0, 0))
		n := 1 + rng.Intn(64)
		p := NewUniform(t0, tn, n)
		n = p.Len()
		for j := 0; j < n; j++ {
			if want := t0 + int64(j)*((tn-t0)/int64(n)); p.bounds[j] != want {
				t.Fatalf("NewUniform(%d, %d, %d): boundary %d = %d, want %d", t0, tn, n, j, p.bounds[j], want)
			}
		}
	}
}

func TestIndexOf(t *testing.T) {
	p := NewUniform(0, 40, 4) // [0,10) [10,20) [20,30) [30,40)
	for _, tc := range []struct {
		pt   Point
		want int
	}{
		{0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {30, 3}, {39, 3},
		{-5, 0},  // clamps low
		{40, 3},  // clamps high
		{999, 3}, // clamps high
	} {
		if got := p.IndexOf(tc.pt); got != tc.want {
			t.Errorf("IndexOf(%d) = %d, want %d", tc.pt, got, tc.want)
		}
	}
}

func TestIndexOfConsistentWithPartitionInterval(t *testing.T) {
	p := NewUniform(0, 97, 7) // uneven widths: last partition absorbs remainder
	for pt := Point(0); pt < 97; pt++ {
		i := p.IndexOf(pt)
		if !p.PartitionInterval(i).ContainsPoint(pt) {
			t.Fatalf("point %d mapped to partition %d = %v which does not contain it",
				pt, i, p.PartitionInterval(i))
		}
	}
}

func TestNewExplicit(t *testing.T) {
	p, err := NewExplicit([]Point{0, 5, 50, 51})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if got := p.IndexOf(5); got != 1 {
		t.Errorf("IndexOf(5) = %d, want 1", got)
	}
	if got := p.IndexOf(50); got != 2 {
		t.Errorf("IndexOf(50) = %d, want 2", got)
	}
	if _, err := NewExplicit([]Point{1}); err == nil {
		t.Error("single boundary accepted")
	}
	if _, err := NewExplicit([]Point{0, 5, 5}); err == nil {
		t.Error("non-increasing boundaries accepted")
	}
}

// TestFigure2Example reproduces the worked example of Figure 2: a relation
// with intervals u and v over a 4-partition range, where projecting yields
// one pair each, splitting yields 2 pairs for u and 1 for v, and replicating
// yields 4 pairs for u and 3 for v.
func TestFigure2Example(t *testing.T) {
	p := NewUniform(0, 40, 4)
	u := New(2, 15)  // starts in p0, crosses into p1
	v := New(12, 18) // entirely inside p1

	if got := p.Project(u); got != 0 {
		t.Errorf("Project(u) = %d, want 0", got)
	}
	if got := p.Project(v); got != 1 {
		t.Errorf("Project(v) = %d, want 1", got)
	}
	if f, l := p.Split(u); f != 0 || l != 1 {
		t.Errorf("Split(u) = [%d,%d], want [0,1]", f, l)
	}
	if f, l := p.Split(v); f != 1 || l != 1 {
		t.Errorf("Split(v) = [%d,%d], want [1,1]", f, l)
	}
	if got := p.PairCount(OpReplicate, u); got != 4 {
		t.Errorf("Replicate(u) pair count = %d, want 4", got)
	}
	if got := p.PairCount(OpReplicate, v); got != 3 {
		t.Errorf("Replicate(v) pair count = %d, want 3", got)
	}
}

func TestApplySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewUniform(0, 200, 13)
	for i := 0; i < 5000; i++ {
		iv := randomProperInterval(rng, 200)
		// Project: exactly one pair, the partition holding the start point.
		pf, pl := p.Apply(OpProject, iv)
		if pf != pl || !p.PartitionInterval(pf).ContainsPoint(iv.Start) {
			t.Fatalf("Project(%v) = [%d,%d]", iv, pf, pl)
		}
		// Split: exactly the partitions intersecting the interval.
		sf, sl := p.Apply(OpSplit, iv)
		for j := 0; j < p.Len(); j++ {
			intersects := p.PartitionInterval(j).Intersects(iv)
			inRange := j >= sf && j <= sl
			if intersects != inRange {
				t.Fatalf("Split(%v): partition %d intersects=%v inRange=%v", iv, j, intersects, inRange)
			}
		}
		// Replicate: from the start partition through the last.
		rf, rl := p.Apply(OpReplicate, iv)
		if rf != pf || rl != p.Len()-1 {
			t.Fatalf("Replicate(%v) = [%d,%d], want [%d,%d]", iv, rf, rl, pf, p.Len()-1)
		}
		// Pair-count ordering: project <= split <= replicate.
		if p.PairCount(OpProject, iv) > p.PairCount(OpSplit, iv) ||
			p.PairCount(OpSplit, iv) > p.PairCount(OpReplicate, iv) {
			t.Fatalf("pair count ordering violated for %v", iv)
		}
	}
}

func TestCrossing(t *testing.T) {
	p := NewUniform(0, 40, 4)
	iv := New(12, 25) // starts in p1, ends in p2
	if !p.CrossesRight(iv, 1) {
		t.Error("interval ending in p2 must cross right boundary of p1")
	}
	if p.CrossesRight(iv, 2) {
		t.Error("interval ending in p2 must not cross right boundary of p2")
	}
	if !p.CrossesLeft(iv, 2) {
		t.Error("interval starting in p1 must cross left boundary of p2")
	}
	if p.CrossesLeft(iv, 1) {
		t.Error("interval starting in p1 must not cross left boundary of p1")
	}
}
