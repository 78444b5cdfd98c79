// Package relation models the input relations of an interval join query.
//
// A relation is a named, schema-ed collection of tuples. Every attribute is
// an interval (package interval); real-valued attributes are degenerate
// intervals of length zero, exactly as the paper treats them. The common
// case of the Colocation / Sequence / Hybrid algorithms — a single interval
// attribute — is a relation whose schema has one attribute.
package relation

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"intervaljoin/internal/interval"
)

// Schema describes a relation: its name and the names of its interval
// attributes, in column order.
type Schema struct {
	Name  string
	Attrs []string
}

// NewSchema builds a schema. With no attribute names, a single attribute
// named "I" is assumed (the single-interval-attribute query classes).
func NewSchema(name string, attrs ...string) Schema {
	if len(attrs) == 0 {
		attrs = []string{"I"}
	}
	return Schema{Name: name, Attrs: attrs}
}

// AttrIndex returns the position of the named attribute, or -1.
func (s Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// Arity is the number of attributes.
func (s Schema) Arity() int { return len(s.Attrs) }

// Tuple is one row of a relation: a unique id (unique within its relation)
// and one interval per schema attribute.
type Tuple struct {
	ID    int64
	Attrs []interval.Interval
}

// Key returns the tuple's single interval. It panics unless the tuple has
// exactly one attribute; it is the accessor used by the single-attribute
// join algorithms.
func (t Tuple) Key() interval.Interval {
	if len(t.Attrs) != 1 {
		panic(fmt.Sprintf("relation: Key on %d-attribute tuple", len(t.Attrs)))
	}
	return t.Attrs[0]
}

// Relation is a schema plus its tuples.
type Relation struct {
	Schema Schema
	Tuples []Tuple
	// slab is the one interval column a loader laid the tuples out in —
	// ReadText, LoadFile, FromIntervals — tuple i's Attrs being
	// slab[i·arity:(i+1)·arity]; nil for a relation built tuple by tuple.
	// Check reads the tuples there when they still are.
	slab []interval.Interval
}

// FromIntervals builds a single-attribute relation from a slice of
// intervals, assigning ids 0..n-1 in order. The intervals are copied into
// one slab that the tuples' Attrs alias.
func FromIntervals(name string, ivs []interval.Interval) *Relation {
	r := &Relation{Schema: NewSchema(name), slab: slices.Clone(ivs)}
	r.Tuples = make([]Tuple, len(ivs))
	for i := range r.Tuples {
		r.Tuples[i] = Tuple{ID: int64(i), Attrs: r.slab[i : i+1 : i+1]}
	}
	return r
}

// New builds an empty relation with the given schema.
func New(schema Schema) *Relation { return &Relation{Schema: schema} }

// Append adds a tuple with the next sequential id and the given attribute
// values, returning the id. It panics if the arity does not match.
func (r *Relation) Append(attrs ...interval.Interval) int64 {
	if len(attrs) != r.Schema.Arity() {
		panic(fmt.Sprintf("relation %s: append arity %d, schema arity %d",
			r.Schema.Name, len(attrs), r.Schema.Arity()))
	}
	id := int64(len(r.Tuples))
	r.Tuples = append(r.Tuples, Tuple{ID: id, Attrs: attrs})
	return id
}

// Len is the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Intervals returns the single-attribute column as a slice. It panics for
// multi-attribute relations.
func (r *Relation) Intervals() []interval.Interval {
	if r.Schema.Arity() != 1 {
		panic(fmt.Sprintf("relation %s: Intervals on arity-%d relation", r.Schema.Name, r.Schema.Arity()))
	}
	out := make([]interval.Interval, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.Attrs[0]
	}
	return out
}

// Validate checks tuple arity and interval well-formedness and id
// uniqueness, returning the first problem found. Ids that strictly increase —
// the positions Append, FromIntervals and ReadText assign, or a selection
// taken in id order — are unique as they stand; the set of seen ids is built
// only from the first tuple that departs from that.
func (r *Relation) Validate() error {
	_, err := r.Check()
	return err
}

// Facts is what Check reads of a relation besides its problems.
type Facts struct {
	// Lo and Hi are the smallest and the largest tuple id, 0 and 0 when the
	// relation is empty.
	Lo, Hi int64
	// Longest is the length of the longest interval in the first attribute:
	// 0 when there is none, math.MaxInt64 when a length passes it.
	Longest int64
	// InPlace reports that the tuples lie where their loader laid them,
	// unaltered but for values written through their Attrs: tuple i has id i
	// and its Attrs alias slab[i·arity:(i+1)·arity]. View then reads them
	// there — the loader's slab, capped at the relation's length, ids by
	// position — and copies nothing; otherwise View is empty. Tuples a
	// caller appended, reordered, replaced or resliced away at the front
	// fail the test.
	InPlace bool
	View    Arena
}

// Check validates r as Validate does and returns, from the same pass, its
// Facts.
func (r *Relation) Check() (Facts, error) {
	var f Facts
	var seen map[int64]struct{}
	arity := r.Schema.Arity()
	f.InPlace = arity > 0 && len(r.slab) >= len(r.Tuples)*arity
	for i, t := range r.Tuples {
		if len(t.Attrs) != arity {
			return Facts{}, fmt.Errorf("relation %s: tuple %d has arity %d, want %d",
				r.Schema.Name, i, len(t.Attrs), arity)
		}
		for j, iv := range t.Attrs {
			if !iv.Valid() {
				return Facts{}, fmt.Errorf("relation %s: tuple %d attribute %s invalid: %v",
					r.Schema.Name, i, r.Schema.Attrs[j], iv)
			}
		}
		if len(t.Attrs) > 0 {
			n := t.Attrs[0].Length()
			if n < 0 {
				// A valid interval's length wraps only past MaxInt64.
				n = math.MaxInt64
			}
			f.Longest = max(f.Longest, n)
		}
		if f.InPlace && (t.ID != int64(i) || &t.Attrs[0] != &r.slab[i*arity]) {
			f.InPlace = false
		}
		if seen == nil {
			if i == 0 || t.ID > r.Tuples[i-1].ID {
				continue
			}
			seen = make(map[int64]struct{}, len(r.Tuples))
			// The ids so far strictly increase.
			f.Lo, f.Hi = min(t.ID, r.Tuples[0].ID), r.Tuples[i-1].ID
			for _, u := range r.Tuples[:i] {
				seen[u.ID] = struct{}{}
			}
		}
		if _, dup := seen[t.ID]; dup {
			return Facts{}, fmt.Errorf("relation %s: duplicate tuple id %d", r.Schema.Name, t.ID)
		}
		seen[t.ID] = struct{}{}
		f.Lo, f.Hi = min(f.Lo, t.ID), max(f.Hi, t.ID)
	}
	if seen == nil && len(r.Tuples) > 0 {
		// The ids strictly increase.
		f.Lo, f.Hi = r.Tuples[0].ID, r.Tuples[len(r.Tuples)-1].ID
	}
	if f.InPlace {
		n := len(r.Tuples) * arity
		f.View = Arena{arity: arity, flat: r.slab[:n:n], view: true}
	}
	return f, nil
}

// EncodeTuple serialises a tuple to the line format used on the distributed
// file store: "id|s,e|s,e|...". The relation name is carried by the file,
// not the record.
func EncodeTuple(t Tuple) string {
	return string(AppendTuple(make([]byte, 0, 16+24*len(t.Attrs)), t))
}

// AppendTuple appends EncodeTuple's form to dst and returns the extended
// slice — the allocation-free building block for the record codecs, which
// compose it with tags and flags in one buffer.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = strconv.AppendInt(dst, t.ID, 10)
	for _, iv := range t.Attrs {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, iv.Start, 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, iv.End, 10)
	}
	return dst
}

// DecodeTuple parses the format produced by EncodeTuple.
func DecodeTuple(s string) (Tuple, error) {
	fields := strings.Split(s, "|")
	if len(fields) < 2 {
		return Tuple{}, fmt.Errorf("relation: malformed tuple record %q", s)
	}
	id, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Tuple{}, fmt.Errorf("relation: bad tuple id in %q: %v", s, err)
	}
	attrs := make([]interval.Interval, len(fields)-1)
	for i, f := range fields[1:] {
		iv, err := interval.Parse(f)
		if err != nil {
			return Tuple{}, fmt.Errorf("relation: bad attribute %d in %q: %v", i, s, err)
		}
		attrs[i] = iv
	}
	return Tuple{ID: id, Attrs: attrs}, nil
}

// Bounds returns the minimal half-open range [t0, tn) covering every
// attribute interval of every tuple in the given relations, suitable for
// constructing a Partitioning. ok is false when the relations contain no
// tuples.
//
// No point follows MaxInt64, so an interval ending there is covered up to
// tn = MaxInt64 only: the point MaxInt64 lies at the range's end, where
// Partitioning.IndexOf clamps it into the last partition. When every point
// is MaxInt64, t0 is MaxInt64 − 1, so the range is not empty.
func Bounds(rels ...*Relation) (t0, tn interval.Point, ok bool) {
	var c cover
	for _, r := range rels {
		for _, t := range r.Tuples {
			for _, iv := range t.Attrs {
				c.add(iv)
			}
		}
	}
	return c.halfOpen()
}

// AttrBounds is Bounds over one attribute column of one relation.
func AttrBounds(r *Relation, attr int) (t0, tn interval.Point, ok bool) {
	var c cover
	for _, t := range r.Tuples {
		c.add(t.Attrs[attr])
	}
	return c.halfOpen()
}

// cover is the closed range [lo, hi] the intervals added to it span.
type cover struct {
	lo, hi interval.Point
	ok     bool
}

func (c *cover) add(iv interval.Interval) {
	if !c.ok {
		c.lo, c.hi, c.ok = iv.Start, iv.End, true
		return
	}
	c.lo, c.hi = min(c.lo, iv.Start), max(c.hi, iv.End)
}

// halfOpen is the cover as Bounds returns it.
func (c cover) halfOpen() (t0, tn interval.Point, ok bool) {
	switch {
	case !c.ok:
		return 0, 0, false
	case c.hi < math.MaxInt64:
		return c.lo, c.hi + 1, true
	}
	return min(c.lo, math.MaxInt64-1), math.MaxInt64, true
}
