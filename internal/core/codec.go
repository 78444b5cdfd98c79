package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"intervaljoin/internal/relation"
)

// The intermediate record formats the algorithms ship between map and reduce
// and across cycle boundaries. All are line records on the dfs store:
//
//	tagged tuple:  "<rel>;<tuple>"
//	vector tuple:  "<rel>;<f0f1...>;<tuple>"      (mark output: one flag per vertex)
//	vertex tuple:  "<rel>;<attr>;<flag>;<tuple>"  (Gen-Matrix mark output, pre-merge)
//
// where <tuple> is relation.EncodeTuple's "id|s,e|s,e|..." form and flags
// are '0'/'1' runes. The tag is the relation's index in the query.

// encBuf pools the scratch buffer the encoders assemble records in, so the
// only per-record allocation in steady state is the final exact-size string.
// The map phase emits one record per tuple replica, which made the previous
// concatenation-based encoders a measurable share of map-side allocation.
var encBuf = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// finishRecord converts the assembled record to a string and recycles the
// buffer.
func finishRecord(bp *[]byte, b []byte) string {
	s := string(b)
	*bp = b[:0]
	encBuf.Put(bp)
	return s
}

// encodeTagged prefixes a tuple with its relation index.
func encodeTagged(rel int, t relation.Tuple) string {
	bp := encBuf.Get().(*[]byte)
	b := strconv.AppendInt(*bp, int64(rel), 10)
	b = append(b, ';')
	b = relation.AppendTuple(b, t)
	return finishRecord(bp, b)
}

// splitTagged splits a tagged record into its relation tag and the raw
// tuple body, without decoding the tuple — the columnar reduce path hands
// the body straight to the arena decoder (relation.Arena.AppendDecode).
func splitTagged(s string) (rel int, body string, err error) {
	sep := strings.IndexByte(s, ';')
	if sep < 0 {
		return 0, "", fmt.Errorf("core: malformed tagged tuple %q", s)
	}
	rel, err = strconv.Atoi(s[:sep])
	if err != nil {
		return 0, "", fmt.Errorf("core: bad relation tag in %q: %v", s, err)
	}
	return rel, s[sep+1:], nil
}

// decodeTagged parses encodeTagged's output.
func decodeTagged(s string) (rel int, t relation.Tuple, err error) {
	rel, body, err := splitTagged(s)
	if err != nil {
		return 0, relation.Tuple{}, err
	}
	t, err = relation.DecodeTuple(body)
	return rel, t, err
}

func flagByte(f bool) byte {
	if f {
		return '1'
	}
	return '0'
}

// encodeMarkedBody is the mark reducer's writer: it splices the replication
// decision in front of a tuple's canonical encoded body (the reducer re-emits
// the body it received), with no per-endpoint formatting. With attr < 0 the
// record is a one-flag vector, "<rel>;<f>;<body>" — byte-identical to
// encodeVector of the decoded tuple; otherwise it carries the flagged vertex's
// attribute, "<rel>;<attr>;<f>;<body>", one record per vertex of a tuple,
// which Gen-Matrix's merge cycle assembles into the tuple's flag vector.
func encodeMarkedBody(rel, attr int, replicate bool, body string) string {
	bp := encBuf.Get().(*[]byte)
	b := strconv.AppendInt(*bp, int64(rel), 10)
	b = append(b, ';')
	if attr >= 0 {
		b = strconv.AppendInt(b, int64(attr), 10)
		b = append(b, ';')
	}
	b = append(b, flagByte(replicate), ';')
	b = append(b, body...)
	return finishRecord(bp, b)
}

// decodeVertexFlagged parses encodeMarkedBody's per-vertex form.
func decodeVertexFlagged(s string) (rel, attr int, replicate bool, t relation.Tuple, err error) {
	parts := strings.SplitN(s, ";", 4)
	if len(parts) != 4 {
		return 0, 0, false, relation.Tuple{}, fmt.Errorf("core: malformed vertex-flagged tuple %q", s)
	}
	rel, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, false, relation.Tuple{}, fmt.Errorf("core: bad relation tag in %q: %v", s, err)
	}
	attr, err = strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, false, relation.Tuple{}, fmt.Errorf("core: bad attribute tag in %q: %v", s, err)
	}
	switch parts[2] {
	case "0":
	case "1":
		replicate = true
	default:
		return 0, 0, false, relation.Tuple{}, fmt.Errorf("core: bad flag in %q", s)
	}
	t, err = relation.DecodeTuple(parts[3])
	return rel, attr, replicate, t, err
}

// encodeVector carries one flag per vertex of the relation (Gen-Matrix).
// The flag order is the relation's vertex order (sorted by component id then
// attribute index).
func encodeVector(rel int, flags []bool, t relation.Tuple) string {
	bp := encBuf.Get().(*[]byte)
	b := strconv.AppendInt(*bp, int64(rel), 10)
	b = append(b, ';')
	for _, f := range flags {
		b = append(b, flagByte(f))
	}
	b = append(b, ';')
	b = relation.AppendTuple(b, t)
	return finishRecord(bp, b)
}

// decodeVector parses a flag-vector record. The flags come back as the raw
// validated '0'/'1' field, parallel to the relation's vertices.
func decodeVector(s string) (rel int, flags string, t relation.Tuple, err error) {
	first := strings.IndexByte(s, ';')
	if first < 0 {
		return 0, "", relation.Tuple{}, fmt.Errorf("core: malformed vector tuple %q", s)
	}
	second := strings.IndexByte(s[first+1:], ';')
	if second < 0 {
		return 0, "", relation.Tuple{}, fmt.Errorf("core: malformed vector tuple %q", s)
	}
	second += first + 1
	rel, err = strconv.Atoi(s[:first])
	if err != nil {
		return 0, "", relation.Tuple{}, fmt.Errorf("core: bad relation tag in %q: %v", s, err)
	}
	flags = s[first+1 : second]
	for i := 0; i < len(flags); i++ {
		if flags[i] != '0' && flags[i] != '1' {
			return 0, "", relation.Tuple{}, fmt.Errorf("core: bad flag vector in %q", s)
		}
	}
	t, err = relation.DecodeTuple(s[second+1:])
	return rel, flags, t, err
}
