package relation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"intervaljoin/internal/interval"
)

// Arena is a struct-of-arrays tuple store for the reduce-side join kernel:
// ids and a single flat interval column live in two parallel slices, so
// decoding a candidate list touches no per-tuple heap objects and
// re-materialising a tuple for emission is one subslice header. A tuple is
// identified by the int32 ref Append returns; refs are dense (0..Len()-1)
// and stay valid until Reset.
//
// An arena holds tuples of one arity, which its first tuple fixes: tuple
// ref's attributes are flat[ref·arity:(ref+1)·arity]. An Arena belongs to
// one goroutine; pooled reuse goes through Reset, which keeps the backing
// arrays.
//
// A view (Facts.View) is an arena over a relation's own slab, its ids the
// positions: it is read like any other, never appended to, and Reset drops
// it without writing into the relation's memory, so any number of
// goroutines may each hold a view of one relation.
type Arena struct {
	arity int
	// ids[ref] is tuple ref's id; a view has none.
	ids  []int64
	flat []interval.Interval
	view bool
}

// Len is the number of tuples stored.
func (a *Arena) Len() int {
	if a.view {
		return len(a.flat) / a.arity
	}
	return len(a.ids)
}

// Reset empties the arena, retaining capacity for reuse; a view it drops.
func (a *Arena) Reset() {
	if a.view {
		*a = Arena{}
		return
	}
	a.ids = a.ids[:0]
	a.flat = a.flat[:0]
}

// errView is what appending to a view returns.
var errView = errors.New("relation: append to an arena view")

// fix fixes the arena's arity at n for a tuple about to be stored — the
// first one sets it — or reports that the arena's arity is another.
func (a *Arena) fix(n int) error {
	if len(a.ids) > 0 && n != a.arity {
		return fmt.Errorf("relation: %d-attribute tuple in an arena of arity %d", n, a.arity)
	}
	a.arity = n
	return nil
}

// Append copies t into the arena and returns its ref. It panics on a view
// and on a tuple whose arity is not the arena's.
func (a *Arena) Append(t Tuple) int32 {
	if a.view {
		panic(errView)
	}
	if err := a.fix(len(t.Attrs)); err != nil {
		panic(err)
	}
	a.ids = append(a.ids, t.ID)
	a.flat = append(a.flat, t.Attrs...)
	return int32(len(a.ids) - 1)
}

// Grow reserves room for n more tuples holding attrs more intervals between
// them, so that filling the arena from a value list of known size reallocates
// nothing.
func (a *Arena) Grow(n, attrs int) {
	a.ids = slices.Grow(a.ids, n)
	a.flat = slices.Grow(a.flat, attrs)
}

// AppendBinary is the fixed-width form of a tuple, the one the engine's
// records carry: the id, then each attribute's start and end, every number 8
// bytes little-endian. The arity is the length.
func AppendBinary(dst []byte, t Tuple) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.ID))
	for _, iv := range t.Attrs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(iv.Start))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(iv.End))
	}
	return dst
}

// DecodeBinary reads AppendBinary's form with 8-byte loads, appending the
// attributes to buf. It rejects what AppendBinary cannot have written: a body
// that is not an id and one or more whole intervals, and an interval whose
// start exceeds its end.
func DecodeBinary(body string, buf []interval.Interval) (id int64, attrs []interval.Interval, err error) {
	if len(body) < 24 || (len(body)-8)%16 != 0 {
		return 0, nil, fmt.Errorf("relation: binary tuple of %d bytes is not an id and whole intervals", len(body))
	}
	for off := 8; off < len(body); off += 16 {
		iv := interval.Interval{Start: le64(body[off:]), End: le64(body[off+8:])}
		if iv.Start > iv.End {
			return 0, nil, fmt.Errorf("relation: binary tuple attribute %d has start %d > end %d", (off-8)/16, iv.Start, iv.End)
		}
		buf = append(buf, iv)
	}
	return le64(body), buf, nil
}

// BinaryID reads the id of an AppendBinary body in place.
func BinaryID(body string) int64 { return le64(body) }

func le64(s string) int64 {
	_ = s[7]
	return int64(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
}

// AppendBinary decodes one AppendBinary body straight into the arena — what
// AppendDecode is to the text form. On error, a view among them, the arena
// is unchanged.
func (a *Arena) AppendBinary(body string) (int32, error) {
	if a.view {
		return 0, errView
	}
	id, flat, err := DecodeBinary(body, a.flat)
	if err != nil {
		return 0, err
	}
	if err := a.fix(len(flat) - len(a.flat)); err != nil {
		return 0, err
	}
	a.flat = flat
	a.ids = append(a.ids, id)
	return int32(len(a.ids) - 1), nil
}

// AppendDecode parses one EncodeTuple record ("id|s,e|s,e|...") directly
// into the arena — the zero-copy counterpart of DecodeTuple, accepting and
// rejecting the same inputs, and besides them one of another arity than the
// arena's. On error the arena is unchanged.
func (a *Arena) AppendDecode(s string) (int32, error) {
	if a.view {
		return 0, errView
	}
	sep := strings.IndexByte(s, '|')
	if sep < 0 {
		return 0, fmt.Errorf("relation: malformed tuple record %q", s)
	}
	id, err := strconv.ParseInt(s[:sep], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("relation: bad tuple id in %q: %v", s, err)
	}
	flat0 := len(a.flat)
	rest := s[sep+1:]
	for i := 0; ; i++ {
		field := rest
		last := true
		if j := strings.IndexByte(rest, '|'); j >= 0 {
			field, rest = rest[:j], rest[j+1:]
			last = false
		}
		iv, ok := parseIntervalFast(field)
		if !ok {
			var err error
			iv, err = interval.Parse(field)
			if err != nil {
				a.flat = a.flat[:flat0]
				return 0, fmt.Errorf("relation: bad attribute %d in %q: %v", i, s, err)
			}
		}
		a.flat = append(a.flat, iv)
		if last {
			break
		}
	}
	if err := a.fix(len(a.flat) - flat0); err != nil {
		a.flat = a.flat[:flat0]
		return 0, err
	}
	a.ids = append(a.ids, id)
	return int32(len(a.ids) - 1), nil
}

// parseIntervalFast parses the canonical "start,end" field form — plain
// decimal digits with an optional leading minus, no whitespace, no
// brackets — exactly as interval.Parse would, without its normalisation
// passes. Any other shape (including start > end, so the validation error
// keeps Parse's wording) reports ok=false and the caller falls back to
// interval.Parse, which accepts a superset and agrees on every string the
// fast path accepts.
func parseIntervalFast(field string) (interval.Interval, bool) {
	c := strings.IndexByte(field, ',')
	if c < 0 {
		return interval.Interval{}, false
	}
	start, ok := parseInt64Fast(field[:c])
	if !ok {
		return interval.Interval{}, false
	}
	end, ok := parseInt64Fast(field[c+1:])
	if !ok || start > end {
		return interval.Interval{}, false
	}
	return interval.Interval{Start: start, End: end}, true
}

// parseInt64Fast parses an optionally negated run of at most 18 decimal
// digits — short enough that the accumulator cannot overflow int64. Longer
// or non-canonical numerals (a leading '+', stray bytes) return ok=false
// so strconv.ParseInt decides them.
func parseInt64Fast(s string) (int64, bool) {
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg = true
		s = s[1:]
	}
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		v = v*10 + int64(d)
	}
	if neg {
		v = -v
	}
	return v, true
}

// ID returns the stored tuple id: in a view, the position.
func (a *Arena) ID(ref int32) int64 {
	if a.view {
		return int64(ref)
	}
	return a.ids[ref]
}

// Attr returns one attribute interval of tuple ref.
func (a *Arena) Attr(ref int32, attr int) interval.Interval {
	if uint(attr) >= uint(a.arity) {
		panic(fmt.Sprintf("relation: arena attr %d on arity-%d tuple", attr, a.arity))
	}
	return a.flat[int(ref)*a.arity+attr]
}

// Start returns Attr(ref, attr).Start — the endpoint column read the sweep
// kernels build their sort keys from.
func (a *Arena) Start(ref int32, attr int) int64 { return a.Attr(ref, attr).Start }

// End returns Attr(ref, attr).End.
func (a *Arena) End(ref int32, attr int) int64 { return a.Attr(ref, attr).End }

// Tuple materialises tuple ref. The returned tuple's Attrs alias the arena
// — in a view, the relation — and are capped: valid until the next Reset,
// and not to be retained across one.
func (a *Arena) Tuple(ref int32) Tuple {
	lo := int(ref) * a.arity
	return Tuple{ID: a.ID(ref), Attrs: a.flat[lo : lo+a.arity : lo+a.arity]}
}
