package main

import (
	"strconv"
	"sync"
	"unicode/utf8"

	"intervaljoin/internal/cache"
)

// appendQueryResponse appends the /query response body for ans: the
// object encoding/json would write for the documented fields in their
// documented order (delta_windows and algorithm left out when empty), then
// a newline. The rows are spliced in as the text the cache stored when
// they were inserted, so nothing here runs per row or per id.
func appendQueryResponse(dst []byte, ans *cache.Answer) []byte {
	dst = append(dst, `{"rows":`...)
	dst = append(dst, ans.RowsJSON...)
	dst = append(dst, `,"window":`...)
	dst = appendWindow(dst, ans.Window)
	dst = append(dst, `,"hit_segments":`...)
	dst = strconv.AppendInt(dst, int64(ans.HitSegments), 10)
	if len(ans.DeltaWindows) > 0 {
		dst = append(dst, `,"delta_windows":[`...)
		for i, w := range ans.DeltaWindows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendWindow(dst, w)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"cached_rows":`...)
	dst = strconv.AppendInt(dst, ans.CachedRows, 10)
	dst = append(dst, `,"delta_rows":`...)
	dst = strconv.AppendInt(dst, ans.DeltaRows, 10)
	if ans.Algorithm != "" {
		dst = append(dst, `,"algorithm":`...)
		dst = appendJSONString(dst, ans.Algorithm)
	}
	dst = append(dst, `,"wall_ns":`...)
	dst = strconv.AppendInt(dst, ans.Wall.Nanoseconds(), 10)
	return append(dst, '}', '\n')
}

func appendWindow(dst []byte, w cache.Window) []byte {
	dst = append(dst, `{"lo":`...)
	dst = strconv.AppendInt(dst, w.Lo, 10)
	dst = append(dst, `,"hi":`...)
	dst = strconv.AppendInt(dst, w.Hi, 10)
	return append(dst, '}')
}

// appendJSONString appends s as a JSON string with encoding/json's
// default escaping: quote, backslash and control characters, the HTML
// characters <, > and &, U+2028 and U+2029, and U+FFFD for invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case b == '"' || b == '\\':
				dst = append(dst, '\\', b)
			case b == '\b':
				dst = append(dst, '\\', 'b')
			case b == '\f':
				dst = append(dst, '\\', 'f')
			case b == '\n':
				dst = append(dst, '\\', 'n')
			case b == '\r':
				dst = append(dst, '\\', 'r')
			case b == '\t':
				dst = append(dst, '\\', 't')
			case b < 0x20 || b == '<' || b == '>' || b == '&':
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			default:
				dst = append(dst, b)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			dst = append(dst, s[i:i+size]...)
		}
		i += size
	}
	return append(dst, '"')
}

// respBufs recycles response buffers between requests. A buffer that grew
// past maxPooledResp served an unusually large answer and is left to the
// collector instead of pinning that much memory per idle connection.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 4 << 20
