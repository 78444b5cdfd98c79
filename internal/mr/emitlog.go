package mr

import "sync"

// The emission log: what a map worker's tasks emitted, in order, kept in
// fixed-size pages. Both shuffles buffer in it — the in-memory merge reads
// the pages where they lie, a spill flushes them as a run — and neither
// allocates per emission: pages come from pagePool and go back once the
// values they name have been placed (or written out), so between map and
// reduce the collector sees page headers it has seen before and nothing
// else.

// emitPageLen is the number of emissions in a page: 8 KB of headers, a size
// the allocator has a class for and a job of a few hundred emissions fills
// once.
const emitPageLen = 256

type emitPage [emitPageLen]emission

var pagePool = sync.Pool{New: func() any { return new(emitPage) }}

// takePage returns an all-zero page.
func takePage() *emitPage { return pagePool.Get().(*emitPage) }

// releasePage hands p back for any job to fill. It is cleared first: a
// header left behind would keep the slab its value is a view of alive for as
// long as the page sat in the pool. p must not be read afterwards.
func releasePage(p *emitPage) {
	*p = emitPage{}
	pagePool.Put(p)
}

// emitLog is one map worker's emissions, point and range alike, in the order
// its tasks made them.
type emitLog struct {
	full []*emitPage // filled pages, oldest first
	cur  []emission  // the page being filled, nil before the first emission
}

// turnPage retires the current page, which is full, and starts the next.
func (l *emitLog) turnPage() {
	if l.cur != nil {
		l.full = append(l.full, (*emitPage)(l.cur))
	}
	l.cur = takePage()[:0]
}

func (l *emitLog) len() int { return len(l.full)*emitPageLen + len(l.cur) }

// logMark is a position in a log: the filled pages and the emissions on the
// current one.
type logMark struct{ pages, n int }

func (l *emitLog) mark() logMark { return logMark{pages: len(l.full), n: len(l.cur)} }

// since calls fn with the emissions logged from m on, a page's worth at a
// time.
func (l *emitLog) since(m logMark, fn func([]emission)) {
	for i := m.pages; i < len(l.full); i++ {
		fn(l.full[i][m.n:])
		m.n = 0
	}
	fn(l.cur[m.n:])
}

// appendTo appends the whole log to dst.
func (l *emitLog) appendTo(dst []emission) []emission {
	l.since(logMark{}, func(ems []emission) { dst = append(dst, ems...) })
	return dst
}

// release empties the log and returns its pages. Whatever was read out of
// them — values placed in an arena, emissions copied to a run — stays valid;
// the pages themselves must not be read again.
func (l *emitLog) release() {
	for _, p := range l.full {
		releasePage(p)
	}
	if l.cur != nil {
		releasePage((*emitPage)(l.cur[:emitPageLen]))
	}
	*l = emitLog{}
}
