package cmdtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"intervaljoin/internal/obs/live"
)

// startIjoind launches the server on an OS-assigned port and returns its
// base URL once the listen line appears on stderr. The caller signals and
// waits via the returned command.
func startIjoind(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, "ijoind"),
		append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	// The serving line is "ijoind: serving <time> on <addr> (relations: ...)".
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " on "); i >= 0 && strings.Contains(line, "serving") {
				rest := line[i+4:]
				if j := strings.Index(rest, " ("); j >= 0 {
					rest = rest[:j]
				}
				addrc <- rest
			}
		}
	}()
	select {
	case addr := <-addrc:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("ijoind did not start serving within 30s")
		return nil, ""
	}
}

// queryAnswer is the part of a /query body the tests read.
type queryAnswer struct {
	Rows        [][]int64 `json:"rows"`
	HitSegments int       `json:"hit_segments"`
}

// postQuery sends one windowed query and decodes the body. It reports
// failure as an error, so a client on another goroutine can call it.
func postQuery(base, q string, lo, hi int64) (queryAnswer, error) {
	var ans queryAnswer
	body, _ := json.Marshal(map[string]any{"query": q, "lo": lo, "hi": hi})
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return ans, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ans, fmt.Errorf("POST /query [%d,%d]: status %d", lo, hi, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return ans, fmt.Errorf("POST /query [%d,%d]: body does not decode: %w", lo, hi, err)
	}
	return ans, nil
}

// rowSet renders rows as the "id,id" strings batch ijoin prints, as a set.
func rowSet(rows [][]int64) map[string]bool {
	set := make(map[string]bool, len(rows))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, id := range r {
			parts[i] = fmt.Sprintf("%d", id)
		}
		set[strings.Join(parts, ",")] = true
	}
	return set
}

// scrapeMetrics fetches /metrics, validates the exposition text, and
// returns the parsed samples.
func scrapeMetrics(t *testing.T, base string) []live.Sample {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	samples, err := live.Parse(resp.Body)
	if err != nil {
		t.Fatalf("/metrics failed validation: %v", err)
	}
	return samples
}

// sampleValue returns the first sample with the given name.
func sampleValue(samples []live.Sample, name string) (float64, bool) {
	for _, s := range samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// labeledValue returns the sample with the given name and label value.
func labeledValue(samples []live.Sample, name, label, value string) (float64, bool) {
	for _, s := range samples {
		if s.Name == name && s.Label(label) == value {
			return s.Value, true
		}
	}
	return 0, false
}

// TestIjoindServesCachedQueries boots the server on real relation files
// with every query traced (-trace-sample 1, so the batch-equality check
// covers the traced path) and drives a window mix at it: overlapping
// windows from one client (so the second is served at least partly from
// the segment cache), then a mix from two clients at once (so the server
// runs their delta joins side by side), then the whole range, which must be
// exactly the batch ijoin output. It strictly parses a mid-load and a final
// /metrics scrape, and the final one must count every query sent and every
// row the bodies held. Then it exercises graceful shutdown: SIGTERM must
// drain, flush -metrics, and exit cleanly.
func TestIjoindServesCachedQueries(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.txt")
	b := filepath.Join(dir, "b.txt")
	metrics := filepath.Join(dir, "metrics.json")
	traceDir := filepath.Join(dir, "traces")
	mustRun(t, "genintervals", "-n", "200", "-tmax", "1000", "-imax", "50", "-seed", "1", "-o", a)
	mustRun(t, "genintervals", "-n", "200", "-tmax", "1000", "-imax", "50", "-seed", "2", "-o", b)

	cmd, base := startIjoind(t, "-rel", "R1="+a, "-rel", "R2="+b, "-metrics", metrics,
		"-trace-sample", "1", "-trace-dir", traceDir)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// sent and rows count the queries answered and the rows their bodies
	// held; the final scrape must end at both.
	const q = "R1 overlaps R2"
	var sent, rows atomic.Int64
	send := func(lo, hi int64) (queryAnswer, error) {
		ans, err := postQuery(base, q, lo, hi)
		if err == nil {
			sent.Add(1)
			rows.Add(int64(len(ans.Rows)))
		}
		return ans, err
	}
	mustSend := func(lo, hi int64) queryAnswer {
		t.Helper()
		ans, err := send(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}

	mustSend(0, 600)
	mid := scrapeMetrics(t, base)
	midCount, ok := sampleValue(mid, "ij_query_latency_seconds_count")
	if !ok || midCount < 1 {
		t.Fatalf("mid-load ij_query_latency_seconds_count = %v (present=%v), want >= 1", midCount, ok)
	}
	if warm := mustSend(300, 900); warm.HitSegments == 0 {
		t.Error("overlapping window [300,900] after [0,600] hit no cached segment")
	}

	// Two clients at once, each over its own slice of a mix of windows
	// past the ones above: each client's first windows need delta joins,
	// which the server runs side by side, and its repeats are hits.
	const clients, perClient = 2, 4
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for i := c; i < clients*perClient; i += clients {
				lo := 700 + int64(i%4)*100
				if _, err := send(lo, lo+250); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	full := mustSend(0, 10_000)

	// The whole-range answer — merged from cached segments plus delta
	// windows — must be exactly the batch join.
	batch := mustRun(t, "ijoin", "-query", q, "-rel", "R1="+a, "-rel", "R2="+b, "-partitions", "8")
	want := make(map[string]bool)
	for _, l := range nonEmptyLines(batch) {
		want[strings.TrimSpace(l)] = true
	}
	got := rowSet(full.Rows)
	if len(got) != len(want) {
		t.Fatalf("server answered %d rows, batch ijoin %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("server answer missing batch row %s", k)
		}
	}

	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := readAll(resp)
	if !json.Valid([]byte(stats)) || !strings.Contains(stats, `"cache"`) || !strings.Contains(stats, `"hit_ratio"`) {
		t.Fatalf("stats is not JSON with a cache section: %s", stats)
	}

	// The final scrape must have moved past the mid-load one, count every
	// query and row, and carry the gauge and cache-bridge series.
	fin := scrapeMetrics(t, base)
	finCount, ok := sampleValue(fin, "ij_query_latency_seconds_count")
	if !ok || finCount <= midCount {
		t.Fatalf("ij_query_latency_seconds_count did not move: mid %v, final %v", midCount, finCount)
	}
	if finCount != float64(sent.Load()) {
		t.Errorf("ij_query_latency_seconds_count = %v, want the %d queries sent", finCount, sent.Load())
	}
	if v, ok := sampleValue(fin, "ij_query_rows_total"); !ok || v != float64(rows.Load()) {
		t.Errorf("ij_query_rows_total = %v (present=%v), want %d: the rows the bodies held", v, ok, rows.Load())
	}
	for _, name := range []string{
		"ij_inflight",
		"ij_draining",
		"ij_cache_hit_ratio",
		"ij_cache_lookups",
		"ij_cache_bytes_in_use",
		"ij_admission_rejected_total",
		"ij_query_delta_windows_total",
		"ij_query_window_span_count",
		"ij_response_bytes_count",
	} {
		if _, ok := sampleValue(fin, name); !ok {
			t.Errorf("final scrape missing %s", name)
		}
	}
	if v, ok := sampleValue(fin, "ij_query_delta_windows_total"); !ok || v <= 0 {
		t.Errorf("ij_query_delta_windows_total = %v (present=%v), want > 0: delta joins ran", v, ok)
	}
	if ratio, ok := sampleValue(fin, "ij_cache_hit_ratio"); !ok || ratio <= 0 {
		t.Errorf("ij_cache_hit_ratio = %v (present=%v), want > 0 after overlapping windows", ratio, ok)
	}
	// Both stages of every successful query are timed: the series exist
	// mid-load and have moved by the end.
	for _, stage := range []string{"merge", "encode"} {
		midN, ok := labeledValue(mid, "ij_query_stage_seconds_count", "stage", stage)
		if !ok {
			t.Errorf("mid scrape missing ij_query_stage_seconds_count{stage=%q}", stage)
		}
		if finN, _ := labeledValue(fin, "ij_query_stage_seconds_count", "stage", stage); finN <= midN {
			t.Errorf("ij_query_stage_seconds_count{stage=%q} did not move: mid %v, final %v", stage, midN, finN)
		}
	}
	if v, _ := labeledValue(fin, "ij_requests_total", "code", "200"); v <= 0 {
		t.Errorf(`ij_requests_total{code="200"} = %v, want > 0`, v)
	}
	if traced, ok := sampleValue(fin, "ij_query_traces_written_total"); !ok || traced < 3 {
		t.Errorf("ij_query_traces_written_total = %v (present=%v), want >= 3 with -trace-sample 1", traced, ok)
	}

	// Every query was sampled: the trace ring must hold Chrome-trace JSON.
	paths, err := filepath.Glob(filepath.Join(traceDir, "query-*.trace.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no sampled traces in %s (err=%v)", traceDir, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("%s is not a Chrome trace with events (err=%v)", paths[0], err)
	}

	// Graceful shutdown: SIGTERM drains in-flight work, flushes metrics,
	// and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitc := make(chan error, 1)
	go func() { waitc <- cmd.Wait() }()
	select {
	case err := <-waitc:
		if err != nil {
			t.Fatalf("ijoind exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ijoind did not exit within 30s of SIGTERM")
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics not flushed on shutdown: %v", err)
	}
	if !strings.Contains(string(data), `"cache"`) {
		t.Fatalf("flushed metrics missing cache section: %s", data)
	}
}

// TestIjoindHasNoBenchMode: the daemon has one mode, serving. It measures
// nothing itself — bench/ drives it from outside — and checks nothing
// itself — TestIjoindServesCachedQueries drives and scrapes it — so -bench
// and the flags of the self-check mode are unknown, as are the flags of the
// execution mode, the linter overrides and the experiments shorthand that
// are gone.
func TestIjoindHasNoBenchMode(t *testing.T) {
	for _, args := range [][]string{
		{"ijoind", "-bench"},
		{"ijoind", "-selfcheck"},
		{"ijoind", "-scrape-out", "x"},
		{"ijoind", "-query", "x"},
		{"ijoind", "-queries", "1"},
		{"ijoind", "-rows", "1"},
		{"ijoind", "-seed", "1"},
		{"ijoin", "-materialize"},
		{"experiments", "-materialize"},
		{"experiments", "-querymix"},
		{"ijlint", "-ban", "x"},
		{"ijlint", "-hotpaths", "x"},
	} {
		_, errOut, err := run(t, args[0], args[1:]...)
		if err == nil || !strings.Contains(errOut, "flag provided but not defined: "+args[1]) {
			t.Fatalf("%v: err %v, want an unknown-flag exit\nstderr: %s", args, err, errOut)
		}
	}
}

// TestIjoindBoundsTheRequestSurface: a /query body is one JSON object of
// at most 64 KiB. Oversize bodies get 413 without being parsed, anything
// after the object gets 400, both are counted by status code — and a
// well-formed query between them is still answered, with its length
// announced up front.
func TestIjoindBoundsTheRequestSurface(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.txt")
	b := filepath.Join(dir, "b.txt")
	mustRun(t, "genintervals", "-n", "100", "-tmax", "1000", "-imax", "50", "-seed", "1", "-o", a)
	mustRun(t, "genintervals", "-n", "100", "-tmax", "1000", "-imax", "50", "-seed", "2", "-o", b)
	_, base := startIjoind(t, "-rel", "R1="+a, "-rel", "R2="+b)

	const good = `{"query":"R1 overlaps R2","lo":0,"hi":500}`
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"oversize query string", `{"query":"` + strings.Repeat("x", 70<<10) + `","lo":0,"hi":1}`, http.StatusRequestEntityTooLarge},
		{"oversize padding after a good object", good + strings.Repeat(" ", 70<<10), http.StatusRequestEntityTooLarge},
		{"trailing garbage", good + " and more", http.StatusBadRequest},
		{"second object", good + good, http.StatusBadRequest},
		{"trailing white space", good + " \n\t\n", http.StatusOK},
	} {
		resp := post(tc.body)
		body, err := readAll(resp)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%.80s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if tc.want == http.StatusOK {
			if resp.ContentLength != int64(len(body)) {
				t.Errorf("%s: Content-Length %d for a body of %d bytes", tc.name, resp.ContentLength, len(body))
			}
			if !strings.HasPrefix(body, `{"rows":[[`) || !strings.HasSuffix(body, "}\n") {
				t.Errorf("%s: body is not a query answer: %.80s", tc.name, body)
			}
		}
	}
	byCode := make(map[string]float64)
	for _, s := range scrapeMetrics(t, base) {
		if s.Name == "ij_requests_total" {
			byCode[s.Label("code")] = s.Value
		}
	}
	if byCode["413"] != 2 || byCode["400"] != 2 || byCode["200"] < 1 {
		t.Errorf("ij_requests_total by code = %v, want two 413s, two 400s and the 200", byCode)
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String(), sc.Err()
}
