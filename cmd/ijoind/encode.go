package main

import (
	"strconv"
	"sync"

	"intervaljoin/internal/cache"
)

// queryHead opens the /query response body. The handler writes it into the
// response buffer and the service appends the rows' JSON array after it
// (cache.Service.AppendQuery), copying each row's text once, straight from
// the cached segments; appendQueryTail closes the body.
const queryHead = `{"rows":`

// appendQueryTail appends the rest of the /query response body for ans,
// after the rows: the object encoding/json would write for the documented
// fields in their documented order (delta_windows left out when empty),
// then a newline. Nothing here runs per row or per id.
func appendQueryTail(dst []byte, ans *cache.Answer) []byte {
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

// respBufs recycles response buffers between requests. A buffer that grew
// past maxPooledResp served an unusually large answer and is left to the
// collector instead of pinning that much memory per idle connection.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 4 << 20
