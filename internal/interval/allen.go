package interval

import (
	"fmt"
	"math"
)

// Predicate identifies one of the thirteen relations of Allen's interval
// algebra (Allen, CACM 1983). The predicates are evaluated over closed
// integer intervals; for proper intervals (Start < End) the thirteen
// relations are jointly exhaustive and pairwise disjoint. The table below is
// the definition: each relation is its row's conjunction of endpoint
// comparisons, and everything else this package says about a relation — its
// inverse, its less-than order, its join strategy, its candidate window —
// is read from that row.
type Predicate uint8

// The thirteen Allen relations. Each relation P has an inverse P' such that
// P(u, v) holds exactly when P'(v, u) holds; the inverse pairs are listed
// adjacently, the canonical direction first.
const (
	Before       Predicate = iota // u entirely precedes v: u.End < v.Start
	After                         // u entirely follows v: inverse of Before
	Meets                         // u's end coincides with v's start: u.End == v.Start
	MetBy                         // inverse of Meets
	Overlaps                      // u starts first and ends within v: u.Start < v.Start, v.Start < u.End < v.End
	OverlappedBy                  // inverse of Overlaps
	Contains                      // u strictly contains v: u.Start < v.Start, v.End < u.End
	ContainedBy                   // inverse of Contains (Allen's "during")
	Starts                        // u and v start together, u ends first: u.Start == v.Start, u.End < v.End
	StartedBy                     // inverse of Starts
	Finishes                      // u and v end together, u starts later: u.End == v.End, u.Start > v.Start
	FinishedBy                    // inverse of Finishes
	Equals                        // identical endpoints
)

// NumPredicates is the number of Allen relations.
const NumPredicates = 13

// cmpOp constrains one endpoint of u against one endpoint of v: it is the
// set of outcomes it admits — u's endpoint less than, equal to or greater
// than v's — and free admits all three.
type cmpOp uint16

const (
	lt cmpOp = 1 << iota
	eq
	gt
	free = lt | eq | gt
)

// compare is the outcome of x against y, as a one-outcome cmpOp.
func compare(x, y int64) cmpOp {
	o := eq
	if x < y {
		o = lt
	}
	if x > y {
		o = gt
	}
	return o
}

// row is one relation of the table: its name, the four endpoint
// constraints of p(u, v) (cols), and what Figure 1 of the paper gives
// beside them: the less-than order and the map-side strategy.
type row struct {
	name     string
	cols     cmpOp
	inverse  Predicate
	order    Order
	strategy Strategy
}

// columns packs four endpoint comparisons side by side, three bits apart:
// u.Start against v.Start (ss) and v.End (se), u.End against v.Start (es)
// and v.End (ee). A row's constraints and a pair's outcomes are both
// packed so.
func columns(ss, se, es, ee cmpOp) cmpOp { return ss | se<<3 | es<<6 | ee<<9 }

// column is the row's constraint in column k of columns' order.
func (r *row) column(k int) cmpOp { return r.cols >> (3 * k) & free }

// table holds the thirteen rows, each as name, columns(ss, se, es, ee),
// inverse, order and strategy.
var table = [NumPredicates]row{
	Before:       {"before", columns(free, free, lt, free), After, LeftLess, Strategy{OpReplicate, OpProject}},
	After:        {"after", columns(free, gt, free, free), Before, RightLess, Strategy{OpProject, OpReplicate}},
	Meets:        {"meets", columns(free, free, eq, free), MetBy, LeftLess, Strategy{OpSplit, OpProject}},
	MetBy:        {"metby", columns(free, eq, free, free), Meets, RightLess, Strategy{OpProject, OpSplit}},
	Overlaps:     {"overlaps", columns(lt, free, gt, lt), OverlappedBy, LeftLess, Strategy{OpSplit, OpProject}},
	OverlappedBy: {"overlappedby", columns(gt, lt, free, gt), Overlaps, RightLess, Strategy{OpProject, OpSplit}},
	Contains:     {"contains", columns(lt, free, free, gt), ContainedBy, LeftLess, Strategy{OpSplit, OpProject}},
	ContainedBy:  {"containedby", columns(gt, free, free, lt), Contains, RightLess, Strategy{OpProject, OpSplit}},
	Starts:       {"starts", columns(eq, free, free, lt), StartedBy, LeftLess, Strategy{OpProject, OpProject}},
	StartedBy:    {"startedby", columns(eq, free, free, gt), Starts, LeftLess, Strategy{OpProject, OpProject}},
	Finishes:     {"finishes", columns(gt, free, free, eq), FinishedBy, RightLess, Strategy{OpProject, OpSplit}},
	FinishedBy:   {"finishedby", columns(lt, free, free, eq), Finishes, LeftLess, Strategy{OpSplit, OpProject}},
	Equals:       {"equals", columns(eq, free, free, eq), Equals, LeftLess, Strategy{OpProject, OpProject}},
}

// String returns the lower-case name of the predicate as used by the query
// language ("overlaps", "before", ...).
func (p Predicate) String() string {
	if p < NumPredicates {
		return table[p].name
	}
	return fmt.Sprintf("predicate(%d)", uint8(p))
}

// predicateAliases are the names ParsePredicate accepts beside the table's.
var predicateAliases = map[string]Predicate{
	"<": Before, ">": After, "overlap": Overlaps, "during": ContainedBy,
	"equal": Equals, "=": Equals, "==": Equals,
}

// ParsePredicate maps a name (case-insensitive, with a few aliases such as
// "during" for containedby and "=" for equals) to a Predicate.
func ParsePredicate(name string) (Predicate, error) {
	n := normalizePredicateName(name)
	for p := range Predicate(NumPredicates) {
		if table[p].name == n {
			return p, nil
		}
	}
	if p, ok := predicateAliases[n]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("interval: unknown Allen predicate %q", name)
}

func normalizePredicateName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		case c == ' ' || c == '-' || c == '_':
			// Dropped: "overlapped by" == "overlappedby".
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// Eval reports whether predicate p holds for the ordered pair (u, v).
func (p Predicate) Eval(u, v Interval) bool {
	return table[p].admits(outcomes(u, v))
}

// outcomes is how the pair's endpoints compare, packed by columns.
func outcomes(u, v Interval) cmpOp {
	return columns(compare(u.Start, v.Start), compare(u.Start, v.End),
		compare(u.End, v.Start), compare(u.End, v.End))
}

// admits reports whether each of a pair's outcomes is one its column of
// the row admits.
func (r *row) admits(got cmpOp) bool { return r.cols&got == got }

// Inverse returns the predicate p' with p(u, v) == p'(v, u).
func (p Predicate) Inverse() Predicate { return table[p].inverse }

// Window is the candidate window of the application p(b, x), compiled from
// p's row: for a valid x (x.Start <= x.End), p(b, x) holds exactly when
// sLo <= x.Start <= sHi and eLo <= x.End <= eHi. Each of the row's
// constraints bounds one endpoint of x by one endpoint of b — b < x gives a
// lower edge at b's endpoint + 1, b > x an upper edge at − 1, b = x both
// edges at b's endpoint itself — and an edge no constraint bounds stays at
// its int64 infinity, except sHi, which then takes eHi's bound, since
// x.Start <= x.End. Compile it once per condition with Predicate.Window and
// apply it per bound interval with At.
type Window struct {
	sLo, sHi, eLo, eHi edge
}

// edge is one bound of a Window: the endpoint of b it reads, selected by the
// all-ones mask (start or end, both zero when the edge is unbounded), plus
// add — the constraint's step, or the infinity of an unbounded edge.
type edge struct {
	start, end, add int64
}

// Window compiles p's candidate window. No row bounds one edge twice (the
// second bound would replace the first, and the window would no longer be
// exact).
func (p Predicate) Window() Window {
	r := &table[p]
	w := Window{
		sLo: edge{add: math.MinInt64}, sHi: edge{add: math.MaxInt64},
		eLo: edge{add: math.MinInt64}, eHi: edge{add: math.MaxInt64},
	}
	for k, c := range [...]struct {
		start, end int64 // the mask of b's endpoint the column compares
		lo, hi     *edge // the edges of x's endpoint it compares
	}{
		{-1, 0, &w.sLo, &w.sHi},
		{-1, 0, &w.eLo, &w.eHi},
		{0, -1, &w.sLo, &w.sHi},
		{0, -1, &w.eLo, &w.eHi},
	} {
		op := r.column(k)
		step := int64(0)
		if op&eq == 0 {
			step = 1
		}
		if op&gt == 0 { // b <= x
			*c.lo = edge{c.start, c.end, step}
		}
		if op&lt == 0 { // b >= x
			*c.hi = edge{c.start, c.end, -step}
		}
	}
	if !w.sHi.bounded() {
		w.sHi = w.eHi
	}
	return w
}

func (e *edge) bounded() bool { return e.start|e.end != 0 }

// at is the edge's bound for b. It ORs into over a word whose sign bit is
// set when a strict step passes the int64 line (a lower edge past MaxInt64,
// an upper one below MinInt64), the sign test of a signed add's overflow;
// the window then admits no x. An unbounded edge adds its infinity to 0,
// which never overflows.
func (e *edge) at(b Interval, over int64) (int64, int64) {
	v := b.Start&e.start | b.End&e.end
	r := v + e.add
	return r, over | (v^r)&(e.add^r)
}

// At returns the window's bounds for the bound interval b. ok is false when
// a strict bound saturates at the int64 extremes (before(b, x) with
// b.End == MaxInt64 admits no x at all); callers must then take no
// candidate rather than use the bounds.
func (w *Window) At(b Interval) (sLo, sHi, eLo, eHi int64, ok bool) {
	var over int64
	sLo, over = w.sLo.at(b, over)
	sHi, over = w.sHi.at(b, over)
	eLo, over = w.eLo.at(b, over)
	eHi, over = w.eHi.at(b, over)
	return sLo, sHi, eLo, eHi, over >= 0
}

// Shape reports which of the window's edges other than sLo are bounded:
// the bound columns a kernel must keep per bound interval.
func (w *Window) Shape() (sHi, eLo, eHi bool) {
	return w.sHi.bounded(), w.eLo.bounded(), w.eHi.bounded()
}

// Canonical reports whether p is the direction Query.Normalize keeps: the
// first of its inverse pair (before, meets, overlaps, contains, starts,
// finishes), or equals, its own inverse.
func (p Predicate) Canonical() bool { return p <= table[p].inverse }

// IsSequence reports whether p is a sequence-based predicate: the two
// intervals are required to be disjoint (before / after). All other Allen
// relations are colocation-based.
func (p Predicate) IsSequence() bool { return p == Before || p == After }

// IsColocation reports whether p is a colocation-based predicate, i.e. it
// requires the two intervals to share at least one point.
func (p Predicate) IsColocation() bool { return !p.IsSequence() }

// Relations returns the set of all Allen predicates holding for the ordered
// pair (u, v): exactly one for proper intervals, possibly several when an
// operand is a point (two equal points satisfy meets, starts, finishes and
// equals at once).
func Relations(u, v Interval) PredicateSet {
	var s PredicateSet
	got := outcomes(u, v)
	for p := Predicate(0); p < NumPredicates; p++ {
		if table[p].admits(got) {
			s = s.Add(p)
		}
	}
	return s
}

// Relate classifies the ordered pair (u, v) into its unique Allen relation.
// For proper intervals exactly one of the thirteen predicates holds; Relate
// returns it. For degenerate (point) intervals several relation definitions
// coincide; Relate resolves them in the fixed order Equals, Before, After,
// Meets, MetBy, Starts, StartedBy, Finishes, FinishedBy, Contains,
// ContainedBy, Overlaps, OverlappedBy.
func Relate(u, v Interval) Predicate {
	order := [NumPredicates]Predicate{
		Equals, Before, After, Meets, MetBy, Starts, StartedBy,
		Finishes, FinishedBy, Contains, ContainedBy, Overlaps, OverlappedBy,
	}
	got := outcomes(u, v)
	for _, p := range order {
		if table[p].admits(got) {
			return p
		}
	}
	panic(fmt.Sprintf("interval: no Allen relation holds for %v, %v", u, v))
}

// Order describes the less-than order a predicate enforces between its two
// operand relations (Section 5.1, Figure 1 of the paper).
type Order uint8

const (
	// LeftLess means the predicate forces the left operand to be in
	// less-than order with the right operand (left starts no later).
	LeftLess Order = iota
	// RightLess means the predicate forces the right operand to be in
	// less-than order with the left operand.
	RightLess
)

// LessThanOrder returns the less-than order predicate p enforces between its
// left and right operand relations. Every Allen predicate enforces one: if
// p(u, v) holds then the "lesser" interval starts no later than the other.
// For the symmetric-start predicates (starts, startedby, equals) both
// directions hold; the canonical direction LeftLess is returned.
func (p Predicate) LessThanOrder() Order { return table[p].order }

// Op is a map-side communication operation of Section 3: every relation in a
// 2-way join is either projected, split, or replicated over the partitioning.
type Op uint8

const (
	// OpProject sends an interval only to the partition containing its
	// start point.
	OpProject Op = iota
	// OpSplit sends an interval to every partition it intersects.
	OpSplit
	// OpReplicate sends an interval to every partition from its start
	// partition through the last partition.
	OpReplicate
)

// String names the operation.
func (op Op) String() string {
	switch op {
	case OpProject:
		return "project"
	case OpSplit:
		return "split"
	case OpReplicate:
		return "replicate"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Strategy is the pair of map-side operations that computes a 2-way interval
// join for one Allen predicate (Figure 1, column 3): Left is applied to the
// left operand relation and Right to the right operand relation. The
// operations guarantee that every satisfying pair of intervals meets at the
// single reducer on which the projected ("greater") interval lands.
type Strategy struct {
	Left  Op
	Right Op
}

// JoinStrategy returns the Project/Split/Replicate assignment for a 2-way
// join on predicate p.
//
// The rule follows the paper: the relation whose intervals start later under
// the predicate's less-than order is projected; for sequence predicates the
// earlier relation is replicated (matching pairs may be arbitrarily far
// apart), while for colocation predicates it is split (the earlier interval
// is guaranteed to reach the partition in which the later one starts). When
// the predicate forces equal start points both relations are projected.
func JoinStrategy(p Predicate) Strategy { return table[p].strategy }
