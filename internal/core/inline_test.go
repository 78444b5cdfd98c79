package core

import (
	"testing"

	"intervaljoin/internal/query"
)

// TestInLineAtTheCap: the rule Engine.Run goes in line by holds at inLineCap
// tuples and not one past it, and never with an option set or with a
// relation that no earlier relation constrains.
func TestInLineAtTheCap(t *testing.T) {
	q := query.MustParse("R1 overlaps R2 and R2 before R3")
	if !inLine(q, Options{}, inLineCap) {
		t.Errorf("%d tuples, the cap, run the job", inLineCap)
	}
	if inLine(q, Options{}, inLineCap+1) {
		t.Errorf("%d tuples, one past the cap, run in line", inLineCap+1)
	}
	if inLine(q, Options{Partitions: 16}, 0) {
		t.Error("an option set runs in line")
	}
	for qs, want := range map[string]bool{
		"R1 overlaps R2 and R3 overlaps R4 and R4 overlaps R1": false,
		"R1 overlaps R2 and R4 overlaps R1 and R3 overlaps R4": true,
		"R1 overlaps R2 and R3 before R1":                      true,
		"R1.I overlaps R2.I and R3.A = R2.A":                   true,
		"R1 before R2 and R3 meets R4 and R2 overlaps R4":      false,
	} {
		if got := inLine(query.MustParse(qs), Options{}, 10); got != want {
			t.Errorf("%q: in line %v, want %v", qs, got, want)
		}
	}
}
