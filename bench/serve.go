package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"intervaljoin"
)

// server is a running ijoind child.
type server struct {
	cmd     *exec.Cmd
	base    string
	ready   time.Duration // exec to the "serving" line
	logDone chan struct{} // closed when the stderr reader has finished
	hc      *http.Client
}

// startServer launches the real ijoind binary on an OS-assigned loopback
// port with the instance's files as residents and waits for its
// "serving" line. The child dies with ctx, and with this process.
func startServer(ctx context.Context, bin string, in *instance, cacheMB int, extra ...string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-cache-mb", strconv.Itoa(cacheMB)}
	for i, f := range in.files {
		args = append(args, "-rel", in.names[i]+"="+f)
	}
	args = append(args, extra...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, logDone: make(chan struct{})}
	// The child logs one JSON line per request; the reader hands over the
	// address from the serving line and then drains the rest so the child
	// never blocks on a full pipe. It ends when the child's stderr closes.
	addrc := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		defer close(addrc)
		br := bufio.NewReader(stderr)
		var tail []string
		for {
			line, err := br.ReadString('\n')
			if i := strings.Index(line, " on "); i >= 0 && strings.HasPrefix(line, "ijoind: serving") {
				addr, _, _ := strings.Cut(line[i+4:], " ")
				addrc <- addr
				break
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: ijoind exited before serving:\n%s", strings.Join(tail, ""))
				return
			}
			tail = append(tail, line)
		}
		if _, err := io.Copy(io.Discard, br); err != nil {
			fmt.Fprintf(os.Stderr, "bench: draining ijoind stderr: %v\n", err)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("ijoind did not reach its serving line")
		}
		s.base = "http://" + addr
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ijoind did not start serving within 60s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	s.ready = time.Since(start)
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxClients, MaxConnsPerHost: maxClients}}
	return s, nil
}

// stop kills the child and reaps it; safe to call more than once.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	if err := s.cmd.Process.Kill(); err != nil && err != os.ErrProcessDone {
		fmt.Fprintf(os.Stderr, "bench: killing ijoind: %v\n", err)
	}
	<-s.logDone
	// Wait's error is the kill itself.
	_ = s.cmd.Wait()
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// get fetches a path off the child and returns the whole body.
func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// heapStats is what the child's runtime reports through
// /debug/pprof/heap?debug=1.
type heapStats struct {
	totalAlloc uint64
	numGC      int64
	pauseNs    []int64 // the runtime's ring of recent pause times
}

func (s *server) heapStats(ctx context.Context) (heapStats, error) {
	body, err := s.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return heapStats{}, err
	}
	var h heapStats
	seen := 0
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "# TotalAlloc = "):
			h.totalAlloc, err = strconv.ParseUint(line[len("# TotalAlloc = "):], 10, 64)
			seen++
		case strings.HasPrefix(line, "# NumGC = "):
			h.numGC, err = strconv.ParseInt(line[len("# NumGC = "):], 10, 64)
			seen++
		case strings.HasPrefix(line, "# PauseNs = ["):
			for _, f := range strings.Fields(strings.Trim(line[len("# PauseNs = "):], "[]")) {
				var v int64
				if v, err = strconv.ParseInt(f, 10, 64); err != nil {
					break
				}
				h.pauseNs = append(h.pauseNs, v)
			}
			seen++
		}
		if err != nil {
			return heapStats{}, fmt.Errorf("heap profile line %q: %w", line, err)
		}
	}
	if seen != 3 {
		return heapStats{}, fmt.Errorf("heap profile lacks the runtime.MemStats lines")
	}
	return h, nil
}

// gcPauseBetween sums the stop-the-world pauses of the collections that
// ran between two snapshots. The runtime keeps the last len(ring); when
// more ran, the sum is scaled up from the ones it kept.
func gcPauseBetween(before, after heapStats) time.Duration {
	n := after.numGC - before.numGC
	ring := int64(len(after.pauseNs))
	if n <= 0 || ring == 0 {
		return 0
	}
	kept := min(n, ring)
	var sum int64
	for i := int64(0); i < kept; i++ {
		sum += after.pauseNs[(after.numGC-1-i)%ring]
	}
	return time.Duration(float64(sum) * float64(n) / float64(kept))
}

// maxClients is the load generator's connection limit: the machine's two
// cores are shared with the server, so more would only measure the
// generator.
const maxClients = 2

// client is one closed-loop connection: it sends the next request only
// after the previous answer has been read in full.
type client struct {
	s    *server
	req  []byte
	body []byte
}

// answer is what the timed path extracts from a response without
// decoding it: the generator must not compete with the server for CPU.
type answer struct {
	status int
	rows   int
	wallNS int64
	bytes  int
}

func (c *client) query(ctx context.Context, q string, w window) (answer, error) {
	c.req = append(c.req[:0], `{"query":"`...)
	c.req = append(c.req, q...)
	c.req = append(c.req, `","lo":`...)
	c.req = strconv.AppendInt(c.req, w.lo, 10)
	c.req = append(c.req, `,"hi":`...)
	c.req = strconv.AppendInt(c.req, w.hi, 10)
	c.req = append(c.req, '}')
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.s.base+"/query", bytes.NewReader(c.req))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.s.hc.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return answer{}, err
		}
	}
	a := answer{status: resp.StatusCode, bytes: len(c.body)}
	if a.status != http.StatusOK {
		return a, nil
	}
	a.rows, a.wallNS, err = scanResponse(c.body)
	return a, err
}

// scanResponse checks that a /query body has the service's shape and
// pulls out the row count and wall_ns by scanning, not decoding.
func scanResponse(body []byte) (rows int, wallNS int64, err error) {
	const head, mid, tail = `{"rows":[`, `],"window":`, `,"wall_ns":`
	body = bytes.TrimRight(body, "\n")
	if !bytes.HasPrefix(body, []byte(head)) || !bytes.HasSuffix(body, []byte("}")) {
		return 0, 0, fmt.Errorf("response is not a query answer: %.60q", body)
	}
	end := bytes.Index(body, []byte(mid))
	if end < 0 {
		return 0, 0, fmt.Errorf("response has no window after its rows")
	}
	rows = bytes.Count(body[len(head):end], []byte("["))
	i := bytes.LastIndex(body, []byte(tail))
	if i < 0 {
		return 0, 0, fmt.Errorf("response has no wall_ns")
	}
	wallNS, err = strconv.ParseInt(string(body[i+len(tail):len(body)-1]), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("response wall_ns: %w", err)
	}
	return rows, wallNS, nil
}

// load says how a serve pass drives the child: which window it starts
// at, how many closed-loop clients, and when it ends (see done; with
// maxOps > 0 it also ends once exactly that many windows are claimed).
type load struct {
	first, clients int
	seconds        float64
	minOps, maxOps int
}

// servePass drives the windows through closed-loop clients. An op that
// errors, returns a status other than 200 or a malformed body counts as
// failed.
func servePass(ctx context.Context, s *server, in *instance, windows []window, ld load, rec *recorder) (*pass, error) {
	cpu0, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex // guards p
		p       = &pass{}
		wg      sync.WaitGroup
	)
	next.Store(int64(ld.first))
	start := time.Now()
	for lane := 0; lane < ld.clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := &client{s: s}
			for !stopped.Load() && ctx.Err() == nil {
				claimed := int(next.Add(1) - 1)
				if ld.maxOps > 0 && claimed >= ld.first+ld.maxOps {
					return
				}
				wi := claimed % len(windows)
				sp := rec.begin("ijoind.query", wi, -1, lane)
				t0 := time.Now()
				a, err := c.query(ctx, in.w.query, windows[wi])
				lat := time.Since(t0)
				rec.end(sp)
				mu.Lock()
				if err != nil || a.status != http.StatusOK {
					p.failed++
					if a.status == http.StatusTooManyRequests {
						p.rejected++
					}
					if p.failed <= maxReported {
						fmt.Fprintf(os.Stderr, "bench: %s window %d: status %d err %v\n", in.w.name, wi, a.status, err)
					}
				}
				p.lat = append(p.lat, ms(lat))
				p.svcWall = append(p.svcWall, float64(a.wallNS)/1e6)
				p.opWindow = append(p.opWindow, wi)
				p.opRows = append(p.opRows, a.rows)
				p.respBytes += int64(a.bytes)
				if done(time.Since(start), ld.seconds, p.ops(), ld.minOps) {
					stopped.Store(true)
				}
				mu.Unlock()
			}
		}(lane)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.wall = time.Since(start)
	cpu1, err := procCPU(s.pid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	return p, nil
}

// queryResponse is the part of the service's answer the full check reads.
type queryResponse struct {
	Rows [][]int64 `json:"rows"`
}

// bruteForce answers the windowed two-relation query from the
// benchmark's own copy of the data: every R1 row intersecting the closed
// window, against every R2 row the predicate accepts. R2 is walked in
// start order and only while its start can still satisfy a predicate
// that needs R2 to start inside the R1 interval; the predicate itself
// decides every candidate.
type bruteForce struct {
	pred   intervaljoin.Predicate
	r1     []ival
	r2     []ival // sorted by start
	r2id   []int64
	bounds bool // pred implies r1.s <= r2.s <= r1.e
}

func newBruteForce(in *instance) (*bruteForce, error) {
	q, err := intervaljoin.ParseQuery(in.w.query)
	if err != nil {
		return nil, err
	}
	if len(q.Relations) != 2 || len(q.Conds) != 1 {
		return nil, fmt.Errorf("brute force handles one condition over two relations, not %q", in.w.query)
	}
	b := &bruteForce{pred: q.Conds[0].Pred, r1: in.rels[0], bounds: q.Conds[0].Pred == intervaljoin.Overlaps}
	order := make([]int64, len(in.rels[1]))
	for i := range order {
		order[i] = int64(i)
	}
	r2 := in.rels[1]
	slices.SortFunc(order, func(a, c int64) int { return int(r2[a].s - r2[c].s) })
	for _, id := range order {
		b.r2 = append(b.r2, r2[id])
		b.r2id = append(b.r2id, id)
	}
	return b, nil
}

func (b *bruteForce) rows(w window) [][2]int64 {
	var out [][2]int64
	for id1, u := range b.r1 {
		if u.s > w.hi || u.e < w.lo {
			continue
		}
		from, to := 0, len(b.r2)
		if b.bounds {
			from = sort.Search(len(b.r2), func(i int) bool { return b.r2[i].s >= u.s })
			to = sort.Search(len(b.r2), func(i int) bool { return b.r2[i].s > u.e })
		}
		ui := intervaljoin.NewInterval(u.s, u.e)
		for i := from; i < to; i++ {
			if b.pred.Eval(ui, intervaljoin.NewInterval(b.r2[i].s, b.r2[i].e)) {
				out = append(out, [2]int64{int64(id1), b.r2id[i]})
			}
		}
	}
	return out
}

// verifySample re-queries a window untimed, decodes the answer in full,
// and compares it with the brute force and with the row count the timed
// op saw (negative when no timed op ran the window).
func verifySample(ctx context.Context, s *server, in *instance, bf *bruteForce, w window, timedRows int) error {
	c := &client{s: s}
	a, err := c.query(ctx, in.w.query, w)
	if err != nil {
		return err
	}
	if a.status != http.StatusOK {
		return fmt.Errorf("re-query status %d", a.status)
	}
	var resp queryResponse
	if err := json.Unmarshal(c.body, &resp); err != nil {
		return fmt.Errorf("re-query body: %w", err)
	}
	if timedRows >= 0 && len(resp.Rows) != timedRows {
		return fmt.Errorf("re-query returned %d rows, the timed op %d", len(resp.Rows), timedRows)
	}
	want := bf.rows(w)
	if len(want) != len(resp.Rows) {
		return fmt.Errorf("service returned %d rows, brute force %d", len(resp.Rows), len(want))
	}
	got := make([][2]int64, len(resp.Rows))
	for i, r := range resp.Rows {
		if len(r) != 2 {
			return fmt.Errorf("row %d has %d ids", i, len(r))
		}
		got[i] = [2]int64{r[0], r[1]}
	}
	cmp := func(a, b [2]int64) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	}
	slices.SortFunc(got, cmp)
	slices.SortFunc(want, cmp)
	if !slices.Equal(got, want) {
		return fmt.Errorf("service rows differ from brute force (%d rows each)", len(got))
	}
	return nil
}
