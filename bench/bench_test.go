package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"intervaljoin"
)

// testScale shrinks every workload for the test suite: 1/50 of the rows
// over 1/50 of the domain, so density and the planner's choices hold.
const testScale = 50

// testEnv builds ijoind once for the whole suite.
var testEnv = sync.OnceValues(func() (*env, error) {
	return newEnv(context.Background(), "")
})

func scaledEnv(t *testing.T) *env {
	t.Helper()
	e, err := testEnv()
	if err != nil {
		t.Fatalf("building the environment: %v", err)
	}
	return e
}

// TestWorkloadsEndToEnd runs every workload's measured path at test
// scale — generating inputs, starting and killing a real ijoind for the
// serve workloads, checking every answer — and requires the contract's
// metrics, all non-zero, and no failed op.
func TestWorkloadsEndToEnd(t *testing.T) {
	e := scaledEnv(t)
	for i := range workloads {
		w := workloads[i].scaled(testScale)
		t.Run(w.name, func(t *testing.T) {
			rec, err := runOne(context.Background(), e, &w, 1, 0.2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			for _, d := range endToEnd {
				m, ok := rec.Metrics[d.name]
				if !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			if len(rec.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, the catalogue has %d", len(rec.Metrics), len(endToEnd))
			}
		})
	}
}

// TestTracedPass runs the per-layer pass on one workload of each kind and
// requires exactly the catalogue's metrics, a trace file, and no failure.
func TestTracedPass(t *testing.T) {
	e := *scaledEnv(t)
	e.out = t.TempDir()
	for _, name := range []string{"batch-matrix", "serve-cold"} {
		base, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w := base.scaled(testScale)
		t.Run(name, func(t *testing.T) {
			rec, err := runOne(context.Background(), &e, &w, 1, 0.5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 {
				t.Errorf("%d of %d checks failed", rec.Failed, rec.Attempted)
			}
			if missing, extra := catalogDiff(rec.Metrics); len(missing)+len(extra) > 0 {
				t.Errorf("per-layer metrics differ from the catalogue: missing %v, uncatalogued %v", missing, extra)
			}
			data, err := os.ReadFile(filepath.Join(e.out, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte(`"traceEvents"`)) || !bytes.Contains(data, []byte(`"ph":"X"`)) {
				t.Errorf("%s.trace.json is not a Chrome trace with complete events", name)
			}
		})
	}
}

// TestCorruptedExpectationFails flips a bit of the expected digest: every
// op must then count as failed and the run as incorrect, which is what
// makes the command exit non-zero.
func TestCorruptedExpectationFails(t *testing.T) {
	e := *scaledEnv(t)
	e.corruptExpected = true
	w := workloads[1].scaled(testScale)
	rec, err := runOne(context.Background(), &e, &w, 1, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != rec.Attempted || rec.Failed == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d, want every op failed", rec.Correct, rec.Failed, rec.Attempted)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false}, {109, 0.90, true},
		{1000, 0.99, true}, {999, 0.99, false}, {20, 0.50, true}, {19, 0.50, false},
	} {
		if got := supported(tc.n, tc.p); got != tc.want {
			t.Errorf("supported(%d, %v) = %v, want %v (%d samples beyond)", tc.n, tc.p, got, tc.want, samplesBeyond(tc.n, tc.p))
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(s, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 1, 7})
	if q1 != 1 || q2 != 7 || q3 != 10 {
		t.Errorf("quartiles(10,1,7) = %v %v %v, want 1 7 10", q1, q2, q3)
	}
}

func TestSteadyAndHostFactor(t *testing.T) {
	// Ten slices of the same work, with short interference around four.
	var sl []slice
	for i := 0; i < runSlices; i++ {
		f := 1.0
		if i >= 3 && i < 7 {
			f = 1.5
		}
		sl = append(sl, slice{Ops: 20, P50: 10 * f, OpsPerS: 100 / f})
	}
	if got := steady(sl, func(s slice) float64 { return s.P50 }, false, false); got != 10 {
		t.Errorf("steady p50 = %v, want 10", got)
	}
	if got := steady(sl, func(s slice) float64 { return s.OpsPerS }, true, false); got != 100 {
		t.Errorf("steady ops/s = %v, want 100", got)
	}
	// A workload whose ops slow as its state grows: the median slice.
	for i := range sl {
		sl[i].P50 = float64(10 + i)
	}
	if got := steady(sl, func(s slice) float64 { return s.P50 }, false, true); got != 14 {
		t.Errorf("steady p50 of a trending run = %v, want 14", got)
	}
	// A host 1.25x slower than nominal throughout, bar noise on top.
	cal := &calibrator{}
	for i := 0; i < 30; i++ {
		cal.reps = append(cal.reps, nominalCalib*5/4+time.Duration(i%7)*time.Millisecond)
	}
	if got := cal.hostFactor(); got != 1.25 {
		t.Errorf("host factor = %v, want 1.25", got)
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	rows := []intervaljoin.OutputTuple{{1, 2, 3}, {4, 5, 6}, {1, 3, 2}, {7, 7, 7}}
	want := consume(rows)
	rev := slices.Clone(rows)
	slices.Reverse(rev)
	if got := consume(rev); got != want {
		t.Errorf("digest depends on row order: %+v vs %+v", got, want)
	}
	changed := slices.Clone(rows)
	changed[2] = intervaljoin.OutputTuple{1, 2, 3}
	if got := consume(changed); got == want {
		t.Error("digest did not notice a changed row")
	}
	if consume(rows[:3]) == want {
		t.Error("digest did not notice a missing row")
	}
}

func hashRel(rel []ival) string {
	h := fnv.New64a()
	for _, iv := range rel {
		fmt.Fprintf(h, "%d,%d;", iv.s, iv.e)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGeneratorsAreDeterministic pins the generators with golden hashes:
// the inputs of a seed must never move, or numbers stop being comparable
// across commits.
func TestGeneratorsAreDeterministic(t *testing.T) {
	uniform := relSpec{name: "R", n: 1000, tmax: 100_000, imin: 1, imax: 100}
	skewed := relSpec{name: "R", n: 1000, zipf: true, tmax: 100_000, imin: 1, imax: 100}
	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"uniform seed 1", hashRel(genRel(uniform, subSeed(1, 0))), goldenUniform},
		{"power-law seed 1", hashRel(genRel(skewed, subSeed(1, 0))), goldenSkewed},
		{"windows seed 1", hashWindows(genWindows(mixSpec{hotspots: 8, skew: 1.5, spanMin: 500, spanMax: 5000}, 0, 100_000, 1000, subSeed(1, 50))), goldenWindows},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: hash %s, golden %s", tc.name, tc.got, tc.want)
		}
	}
	if hashRel(genRel(uniform, subSeed(1, 0))) == hashRel(genRel(uniform, subSeed(2, 0))) {
		t.Error("seeds 1 and 2 generate the same relation")
	}
	if hashRel(genRel(uniform, subSeed(1, 0))) == hashRel(genRel(uniform, subSeed(1, 1))) {
		t.Error("two relations of one seed are the same")
	}
	for _, iv := range genRel(skewed, 7) {
		if iv.s < 0 || iv.e > 100_000 || iv.e-iv.s < 1 || iv.e-iv.s > 100 {
			t.Fatalf("interval [%d,%d] outside the recipe", iv.s, iv.e)
		}
	}
}

func hashWindows(ws []window) string {
	h := fnv.New64a()
	for _, w := range ws {
		fmt.Fprintf(h, "%d,%d;", w.lo, w.hi)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestScanResponse(t *testing.T) {
	body := []byte(`{"rows":[[1,2],[3,4],[5,6]],"window":{"lo":0,"hi":9},"hit_segments":1,"delta_windows":[{"lo":0,"hi":4}],"cached_rows":2,"delta_rows":1,"algorithm":"two-way","wall_ns":12345}` + "\n")
	rows, wall, err := scanResponse(body)
	if err != nil || rows != 3 || wall != 12345 {
		t.Errorf("scanResponse = %d rows, %d ns, %v; want 3, 12345, nil", rows, wall, err)
	}
	rows, _, err = scanResponse([]byte(`{"rows":[],"window":{"lo":0,"hi":9},"hit_segments":0,"cached_rows":0,"delta_rows":0,"wall_ns":7}`))
	if err != nil || rows != 0 {
		t.Errorf("empty answer: %d rows, %v", rows, err)
	}
	for _, bad := range []string{`too many in-flight queries`, `{"rows":[[1,2]]`, `{"rows":[[1,2]],"window":{}}`} {
		if _, _, err := scanResponse([]byte(bad)); err == nil {
			t.Errorf("scanResponse(%q) accepted a malformed body", bad)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50, alloc float64, noisy bool) runSet {
		return runSet{"batch-skew": {{Noisy: noisy, result: result{Metrics: map[string]metric{
			"op_p50_ms": {p50, "ms"}, "alloc_mb_per_op": {alloc, "MB"},
		}}}}}
	}
	var p50, alloc metricDef
	for _, d := range endToEnd {
		switch d.name {
		case "op_p50_ms":
			p50 = d
		case "alloc_mb_per_op":
			alloc = d
		}
	}
	var out bytes.Buffer
	if code := compareSets(&out, mk(100, 40, false), mk(100*(1+p50.bound)+1, 40, false)); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a p50 beyond its bound: code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, mk(100, 40, false), mk(100, 40*(1+alloc.bound/2), false)); code != 0 || strings.Contains(out.String(), "worse") {
		t.Errorf("an alloc within its bound: code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(&out, mk(100, 40, true), mk(200, 40, false)); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a noisy side: code %d\n%s", code, out.String())
	}
}

// benchmarkJSON is BENCHMARK.json, as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the driver's limits and to
// this package's own catalogue.
func TestBenchmarkJSON(t *testing.T) {
	b, err := loadBenchmarkJSON("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics are outside the limits", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) || len(b.Command) == 0 {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	known := make(map[string]bool)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the package has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name)
		known[w.Name] = true
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the package has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the catalogue has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		check(m.Name)
		known[m.Name] = true
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d is %+v, the catalogue has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the catalogue has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check(m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d is %+v, the catalogue has %+v", i, m, d)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		// Every layer metric says which end-to-end metric it should move,
		// and where — or says "none".
		if d.moves == "none" {
			if len(d.on) != 0 {
				t.Errorf("%s moves none but lists workloads %v", d.name, d.on)
			}
			continue
		}
		if !known[d.moves] {
			t.Errorf("%s moves %q, which is not an end-to-end metric", d.name, d.moves)
		}
		if len(d.on) == 0 {
			t.Errorf("%s moves %s on no workload", d.name, d.moves)
		}
		for _, wl := range d.on {
			if !known[wl] {
				t.Errorf("%s names workload %q, which does not exist", d.name, wl)
			}
		}
	}
}

// Golden hashes of the generators' output for seed 1.
const (
	goldenUniform = "fc6dc91ba1d376c2"
	goldenSkewed  = "12aeb39ac6dcce92"
	goldenWindows = "3da82744547f7195"
)
