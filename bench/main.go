// Command bench is the repository's benchmark: five workloads driven the
// two ways users drive the system — in-process through the public
// intervaljoin API, and over HTTP against the real ijoind binary — with
// end-to-end metrics measured tracing off and a per-layer breakdown
// measured from outside in a separate traced pass. See README.md.
//
//	bash bench/run.sh --workload batch-skew --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --trace 1 --out .bench_build/out
//	bash bench/run.sh --compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env is where a run lives: the checkout it measures and the scratch
// space inside it.
type env struct {
	root   string // the checkout: go.mod of module intervaljoin
	build  string // root/.bench_build, for binaries and temp dirs
	ijoind string // the server binary, built from root/cmd/ijoind
	out    string // trace and result files, "" for none
	// corruptExpected flips a bit of the expected batch digest, so tests
	// can watch a wrong answer turn into failed ops and a non-zero exit.
	corruptExpected bool
}

// runTimeout bounds one workload run; the child dies with the context.
const runTimeout = 170 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as results.json keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	result
	Ops     int       `json:"ops"`
	CalibMS float64   `json:"calib_ms"` // the host calibration's floor over the run
	Noisy   bool      `json:"noisy"`    // the host's speed drifted by more than 5 % during the run
	Samples []float64 `json:"samples_ms,omitempty"`
	Slices  []slice   `json:"slices,omitempty"`
	// HostFactor is what the run's times were divided by (1 = nominal).
	HostFactor float64 `json:"host_factor"`
}

// resultsFile is results.json.
type resultsFile struct {
	Go         string      `json:"go"`
	NProc      int         `json:"nproc"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Commit     string      `json:"commit"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Claim      *string     `json:"claim"` // this benchmark claims no gain
	Runs       []runRecord `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed of the benchmark's input generators")
		seconds      = flag.Float64("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and per-layer metrics")
		out          = flag.String("out", "", "directory for results.json and <workload>.trace.json")
		compare      = flag.Bool("compare", false, "compare two results.json files (comma-separated lists for several sets each)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two arguments: old.json new.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var todo []*workload
	if *workloadName == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		todo = []*workload{w}
	}

	file := resultsFile{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit: gitCommit(e.root), Seed: *seed, Seconds: *seconds,
	}
	total := result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range todo {
		// -workload all with -trace 1 runs both passes of every workload.
		for t := 0; t <= *trace; t++ {
			if len(todo) == 1 && t != *trace {
				continue
			}
			rec, err := runOne(ctx, e, w, *seed, *seconds, t)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			file.Runs = append(file.Runs, *rec)
			printRun(rec)
			total.Correct = total.Correct && rec.Correct
			total.Attempted += rec.Attempted
			total.Failed += rec.Failed
			for name, m := range rec.Metrics {
				if len(todo) > 1 {
					name = w.name + "/" + name
				}
				total.Metrics[name] = m
			}
		}
	}
	if e.out != "" {
		if err := writeJSON(filepath.Join(e.out, "results.json"), file); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// newEnv finds the checkout, makes the scratch space inside it and builds
// the server from the checkout's source.
func newEnv(ctx context.Context, out string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, build: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(filepath.Join(e.build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if out != "" {
		if e.out, err = filepath.Abs(out); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(e.out, 0o755); err != nil {
			return nil, err
		}
	}
	e.ijoind = filepath.Join(e.build, "ijoind")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.ijoind, "./cmd/ijoind")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building ijoind: %v\n%s", err, msg)
	}
	return e, nil
}

// findRoot returns the directory holding the intervaljoin module: the
// working directory, or its parent when run from bench/ itself.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err != nil {
			continue
		}
		if strings.HasPrefix(string(data), "module intervaljoin\n") {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the root of an intervaljoin checkout: no go.mod of module intervaljoin here")
}

// gitCommit names the measured commit, where the checkout is a git tree.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne runs one pass of one workload under its timeout, in a temp dir
// of its own that is gone when it returns.
func runOne(ctx context.Context, e *env, w *workload, seed int64, seconds float64, trace int) (*runRecord, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	dir, err := os.MkdirTemp(filepath.Join(e.build, "tmp"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cal := &calibrator{}
	cal.run(runCalibReps)
	var r *runRecord
	if trace == 0 {
		r, err = runEndToEnd(ctx, e, w, seed, seconds, dir, cal)
	} else {
		r, err = runLayers(ctx, e, w, seed, seconds, dir)
	}
	if err != nil {
		return nil, err
	}
	cal.run(runCalibReps)
	r.HostFactor = cal.hostFactor()
	r.Workload, r.Trace, r.Seed = w.name, trace, seed
	r.CalibMS = ms(cal.floor())
	r.Noisy = cal.drifted()
	r.Correct = r.Failed == 0
	if trace == 1 {
		r.Metrics["host.calib_ms"] = metric{ms(cal.floor()), "ms"}
		checkCatalog(r.Metrics)
	}
	return r, nil
}

// printRun lists every metric of a run by name, with its unit.
func printRun(r *runRecord) {
	noisy := ""
	if r.Noisy {
		noisy = " noisy"
	}
	fmt.Printf("%s trace=%d seed=%d ops=%d attempted=%d failed=%d calib=%.2f ms host_factor=%.3f%s\n",
		r.Workload, r.Trace, r.Seed, r.Ops, r.Attempted, r.Failed, r.CalibMS, r.HostFactor, noisy)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("  %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// prepared is a workload set up and ready to measure.
type prepared struct {
	in      *instance
	want    digest // batch: what every op must return
	srv     *server
	windows []window
	bf      *bruteForce
}

func (p *prepared) close() {
	if p != nil {
		p.srv.stop()
	}
}

// windowPool is how many windows a run draws; a pass that outlasts them
// wraps around.
const windowPool = 200_000

// setupChecks is how many fill windows set-up verifies against the brute
// force before any timing starts.
const setupChecks = 3

// setUp does everything a run needs before measuring: generate and write
// the inputs, check correctness on them, start the server or warm the
// process up. Its wall time is the setup_s metric.
func setUp(ctx context.Context, e *env, w *workload, seed int64, dir string) (*prepared, error) {
	in, err := generate(w, seed, filepath.Join(dir, "full"))
	if err != nil {
		return nil, err
	}
	p := &prepared{in: in}
	if !w.serve {
		if err := checkAgainstOracle(w, seed, filepath.Join(dir, "small")); err != nil {
			return nil, err
		}
		for i := 0; i < w.warmup; i++ {
			_, got, _, err := batchOp(in, nil, nil, -1)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				p.want = got
			} else if got != p.want {
				return nil, fmt.Errorf("warm-up op %d returned (%d rows, sum %x), the first (%d rows, sum %x)", i, got.rows, got.sum, p.want.rows, p.want.sum)
			}
		}
		if e.corruptExpected {
			p.want.sum ^= 1
		}
		return p, nil
	}
	p.windows = genWindows(w.mix, in.tmin, in.tmax, windowPool, subSeed(seed, 50))
	if p.bf, err = newBruteForce(in); err != nil {
		return nil, err
	}
	if p.srv, err = startServer(ctx, e.ijoind, in, w.cacheMB); err != nil {
		return nil, err
	}
	if err := fillCache(ctx, p.srv, in, p.windows, w.fill); err != nil {
		p.close()
		return nil, err
	}
	for i := 0; i < setupChecks; i++ {
		wi := i * (w.fill - 1) / (setupChecks - 1)
		if err := verifySample(ctx, p.srv, in, p.bf, p.windows[wi], -1); err != nil {
			p.close()
			return nil, fmt.Errorf("window %d: %w", wi, err)
		}
	}
	return p, nil
}

// setups is how many times a run sets up; setup_s is their median, so
// one or two slow starts do not pass for a regression.
const setups = 5

// verifySamples is how many measured windows a serve run re-queries and
// checks in full after timing.
const verifySamples = 40

// runEndToEnd is the tracing-off run: set up, measure for the given time,
// check every answer, and report what a user of the system would see.
func runEndToEnd(ctx context.Context, e *env, w *workload, seed int64, seconds float64, dir string, cal *calibrator) (*runRecord, error) {
	var prep *prepared
	var setupS []float64
	for i := 0; i < setups; i++ {
		prep.close()
		start := time.Now()
		var err error
		if prep, err = setUp(ctx, e, w, seed, filepath.Join(dir, fmt.Sprintf("setup%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer prep.close()

	p, sl, err := measure(ctx, prep, seconds, cal)
	if err != nil {
		return nil, err
	}
	r := &runRecord{Ops: p.ops(), Samples: p.lat}
	r.Attempted, r.Failed = p.ops(), p.failed
	if w.serve {
		step := max(1, p.ops()/verifySamples)
		for i := 0; i < p.ops(); i += step {
			r.Attempted++
			if err := verifySample(ctx, prep.srv, prep.in, prep.bf, prep.windows[p.opWindow[i]], p.opRows[i]); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s window %d: %v\n", w.name, p.opWindow[i], err)
				r.Failed++
			}
		}
	}
	r.Slices = sl
	host := cal.hostFactor()
	trending := w.fixedOps > 0
	r.Metrics = map[string]metric{
		"op_p50_ms":       {steady(sl, func(s slice) float64 { return s.P50 }, false, trending) / host, "ms"},
		"ops_per_s":       {steady(sl, func(s slice) float64 { return s.OpsPerS }, true, trending) * host, "1/s"},
		"cpu_s_per_op":    {cpuPerOp(sl, p, trending) / host, "s"},
		"alloc_mb_per_op": {float64(p.alloc) / (1 << 20) / float64(p.ops()), "MB"},
		"peak_rss_mb":     {steady(sl, func(s slice) float64 { return s.PeakRSSMB }, false, trending), "MB"},
		"setup_s":         {median(setupS) / host, "s"},
	}
	return r, nil
}

// measure runs the workload's ops for the given time in runSlices
// slices, calibrating the host before, between and after them. Serve
// runs read the child's allocation counter around the whole stretch.
func measure(ctx context.Context, prep *prepared, seconds float64, cal *calibrator) (*pass, []slice, error) {
	w := prep.in.w
	pid := os.Getpid()
	if w.serve {
		pid = prep.srv.pid()
	}
	all := &pass{}
	var sl []slice
	var h0 heapStats
	var err error
	if w.serve {
		if h0, err = prep.srv.heapStats(ctx); err != nil {
			return nil, nil, err
		}
	}
	perSlice, minOps := seconds/runSlices, (w.minOps+runSlices-1)/runSlices
	ld := load{clients: maxClients, seconds: perSlice, minOps: minOps}
	if w.fixedOps > 0 {
		n := max(w.fixedOps/runSlices, 1)
		ld = load{clients: maxClients, minOps: n, maxOps: n}
	}
	calib := cal.run(sliceCalibReps)
	for k := 0; k < runSlices; k++ {
		var p *pass
		resetPeakRSS(pid)
		if w.serve {
			ld.first = w.fill + all.ops()
			p, err = servePass(ctx, prep.srv, prep.in, prep.windows, ld, nil)
		} else {
			p, err = batchPass(ctx, prep.in, prep.want, perSlice, minOps)
		}
		if err != nil {
			return nil, nil, err
		}
		after := cal.run(sliceCalibReps)
		sl = append(sl, sliceOf(p, min(calib, after)))
		if sl[k].PeakRSSMB, err = peakRSSMB(pid); err != nil {
			return nil, nil, err
		}
		calib = after
		all.add(p)
	}
	if w.serve {
		h1, err := prep.srv.heapStats(ctx)
		if err != nil {
			return nil, nil, err
		}
		all.alloc = h1.totalAlloc - h0.totalAlloc
	}
	return all, sl, nil
}

// runLayers is the traced pass: the workload's op with the benchmark's
// span recorder on, then every layer probed from outside. It reports the
// per-layer metrics, prints the waterfall and writes the Chrome trace.
func runLayers(ctx context.Context, e *env, w *workload, seed int64, seconds float64, dir string) (*runRecord, error) {
	in, err := generate(w, seed, filepath.Join(dir, "full"))
	if err != nil {
		return nil, err
	}
	windows := genWindows(w.mix, in.tmin, in.tmax, windowPool, subSeed(seed, 50))
	li, err := loadLayerInputs(in)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	rec := newRecorder()
	var batchRec, serveRec *recorder
	if w.serve {
		serveRec = rec
		batchRec = newRecorder()
	} else {
		batchRec = rec
	}
	// Each timed stretch gets a fifth of the run's seconds; there are up
	// to five of them, and the probes between them add a few seconds.
	slice := seconds / 5

	plain, traced, err := probeBatchOps(ctx, in, slice, batchRec, m)
	if err != nil {
		return nil, err
	}
	r := &runRecord{}
	r.Attempted = plain.ops() + traced.ops()
	r.Failed = plain.failed + traced.failed
	if err := probeLeafLayers(li, m); err != nil {
		return nil, err
	}
	if err := probeEngine(li, m); err != nil {
		return nil, err
	}
	m["core.decode_ms"] = m["core.run_ms"] - m["core.engine_ms"] - m["core.stage_ms"]
	algFailed, err := probeAlgorithms(ctx, seed, m)
	if err != nil {
		return nil, err
	}
	r.Attempted += len(algInstances)
	r.Failed += algFailed
	if err := probeService(ctx, li, windows, m); err != nil {
		return nil, err
	}
	two, err := probeServer(ctx, e, in, windows, slice, serveRec, m)
	if err != nil {
		return nil, err
	}
	r.Attempted += two.ops()
	r.Failed += two.failed

	own := plain // the workload's own op, tracing off
	tracedP50 := percentile(traced.sortedLat(), 0.5)
	if w.serve {
		tr, err := probeTracedServer(ctx, e, in, windows, slice, dir)
		if err != nil {
			return nil, err
		}
		r.Attempted += tr.ops()
		r.Failed += tr.failed
		own = two
		tracedP50 = percentile(tr.sortedLat(), 0.5)
	}
	r.Ops, r.Samples = own.ops(), own.lat
	lat := own.sortedLat()
	untracedP50 := percentile(lat, 0.5)
	m["obs.trace_overhead_ratio"] = tracedP50 / untracedP50
	// The tail of the op, from however many ops this pass ran: p90 has ten
	// samples beyond it from 100 ops on, p99 from 1000.
	m["op.p90_ms"] = percentile(lat, 0.90)
	m["op.p99_ms"] = percentile(lat, 0.99)
	for _, p := range []float64{0.90, 0.99} {
		if !supported(len(lat), p) {
			fmt.Printf("  note: p%.0f of %d ops has fewer than %d samples beyond it\n", 100*p, len(lat), minTailSamples)
		}
	}

	var rows []waterfallRow
	if w.serve {
		rows = []waterfallRow{
			{"ijoind.svc_wall", m["ijoind.svc_wall_p50_ms"], false},
			{"ijoind.http_overhead", m["ijoind.http_overhead_p50_ms"], false},
			{"ijoind.queue_wait", m["ijoind.queue_wait_p50_ms"], false},
		}
	} else {
		self := rec.selfTimes()
		rows = []waterfallRow{
			{"relation.load", self["relation.load"], false},
			{"query.parse", self["query.parse"], false},
			{"core.run", self["core.run"], false},
			{"core.stage", m["core.stage_ms"], true},
			{"core.engine", m["core.engine_ms"], true},
			{"core.feed", m["core.feed_ms"], true},
			{"core.map", m["core.map_ms"], true},
			{"core.reduce", m["core.reduce_ms"], true},
			{"core.decode", m["core.decode_ms"], true},
			{"bench.consume", self["bench.consume"], false},
		}
	}
	m["waterfall.unattributed_ms"] = printWaterfall(os.Stdout, w.name, untracedP50, rows)
	fmt.Printf("  tracing overhead: traced op_p50 %.3f ms / untraced %.3f ms = %.3f\n", tracedP50, untracedP50, m["obs.trace_overhead_ratio"])
	if e.out != "" {
		if err := rec.writeChromeTrace(filepath.Join(e.out, w.name+".trace.json")); err != nil {
			return nil, err
		}
	}
	r.Metrics = make(map[string]metric, len(m)+1)
	for name, v := range m {
		r.Metrics[name] = metric{v, layerUnit(name)}
	}
	return r, nil
}
