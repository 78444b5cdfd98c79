package main

import (
	"fmt"
	"os"
	"strings"
)

// metricDef is one catalogue entry. For a per-layer metric, moves names
// the end-to-end metric it should move and on lists the workloads where
// it should; "none" and nil mean no default path reaches the layer.
type metricDef struct {
	name, unit, better string
	bound              float64  // end-to-end only
	moves              string   // per-layer only
	on                 []string // per-layer only
}

// endToEnd is what a user of the system sees; BENCHMARK.json carries the
// same list. The bounds are three times the widest run-to-run spread seen
// for the metric on the sizing host (README.md, "How a run is measured"), capped at the
// contract's 0.25.
var endToEnd = []metricDef{
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_s_per_op", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.20},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var (
	sparse     = []string{"batch-sparse"}
	sparseCold = []string{"batch-sparse", "serve-cold"}
	skewMatrix = []string{"batch-skew", "batch-matrix"}
	warm       = []string{"serve-warm"}
	cold       = []string{"serve-cold"}
)

// perLayer is the per-layer catalogue: the layers are this repository's
// packages, and every value is taken from the benchmark's side of the
// package boundary. The op's own tail percentiles lead the list: they are
// end-to-end figures, but on a shared host no estimator of them repeats
// well enough to carry a bound (README.md, "How a run is measured"), so they are reported
// here, where none applies.
var perLayer = []metricDef{
	{name: "op.p90_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "op.p99_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "relation.load_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparse},
	{name: "relation.arena_decode_ns_per_row", unit: "ns", better: "lower", moves: "op_p50_ms", on: sparseCold},
	{name: "query.parse_us", unit: "us", better: "lower", moves: "op_p50_ms", on: warm},
	{name: "interval.apply_ns_per_row", unit: "ns", better: "lower", moves: "op_p50_ms", on: sparse},
	{name: "grid.enumerate_runs_us", unit: "us", better: "lower", moves: "op_p50_ms", on: []string{"batch-matrix"}},
	{name: "grid.consistent_cells", unit: "count", better: "lower", moves: "op_p50_ms", on: []string{"batch-matrix"}},
	{name: "dfs.write_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparseCold},
	{name: "dfs.read_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparseCold},
	{name: "dfs.retained_files", unit: "count", better: "lower", moves: "peak_rss_mb", on: cold},
	{name: "dfs.retained_mb", unit: "MB", better: "lower", moves: "peak_rss_mb", on: cold},
	{name: "mr.identity_job_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparse},
	{name: "mr.identity_alloc_mb", unit: "MB", better: "lower", moves: "alloc_mb_per_op", on: sparse},
	{name: "mr.small_job_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: []string{"serve-cold", "batch-matrix"}},
	{name: "core.stage_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparseCold},
	{name: "core.run_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: []string{"batch-sparse", "batch-skew", "batch-matrix"}},
	{name: "core.feed_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparseCold},
	{name: "core.map_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparseCold},
	{name: "core.reduce_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: skewMatrix},
	{name: "core.engine_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: []string{"batch-sparse", "batch-skew", "batch-matrix"}},
	{name: "core.decode_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: skewMatrix},
	{name: "core.max_reducer_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: skewMatrix},
	{name: "core.reducer_time_imbalance", unit: "ratio", better: "lower", moves: "op_p50_ms", on: []string{"batch-skew"}},
	{name: "core.pairs", unit: "count", better: "lower", moves: "op_p50_ms", on: sparse},
	{name: "core.phys_pairs", unit: "count", better: "lower", moves: "alloc_mb_per_op", on: sparse},
	{name: "core.output_rows", unit: "count", better: "lower", moves: "none"},
	{name: "core.replication_factor", unit: "ratio", better: "higher", moves: "alloc_mb_per_op", on: []string{"batch-matrix"}},
	{name: "core.cycles", unit: "count", better: "lower", moves: "op_p50_ms", on: sparse},
	{name: "core.alg.rccis.run_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparse},
	{name: "core.alg.two-way.run_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: []string{"batch-skew", "serve-cold"}},
	{name: "core.alg.all-matrix.run_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "core.alg.all-seq-matrix.run_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: []string{"batch-matrix"}},
	{name: "core.alg.pasm.run_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "core.alg.gen-matrix.run_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "core.alg.fcts.run_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "core.alg.fstc.run_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "core.alg.all-rep.run_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "core.alg.2way-cascade.run_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "cost.advise_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "cache.query_hit_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: warm},
	{name: "cache.query_miss_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: cold},
	{name: "cache.runcold_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: cold},
	{name: "cache.lookup_us", unit: "us", better: "lower", moves: "op_p50_ms", on: warm},
	{name: "cache.insert_us", unit: "us", better: "lower", moves: "op_p50_ms", on: cold},
	{name: "cache.register_ms", unit: "ms", better: "lower", moves: "setup_s", on: []string{"serve-warm", "serve-cold"}},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher", moves: "op_p50_ms", on: warm},
	{name: "cache.evictions", unit: "count", better: "lower", moves: "op_p50_ms", on: cold},
	{name: "cache.delta_rows_per_op", unit: "count", better: "lower", moves: "op_p50_ms", on: cold},
	{name: "cache.cached_rows_per_op", unit: "count", better: "lower", moves: "op_p50_ms", on: warm},
	{name: "ijoind.ready_s", unit: "s", better: "lower", moves: "setup_s", on: []string{"serve-warm", "serve-cold"}},
	{name: "ijoind.svc_wall_p50_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: []string{"serve-warm", "serve-cold"}},
	{name: "ijoind.http_overhead_p50_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: warm},
	{name: "ijoind.queue_wait_p50_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: cold},
	{name: "ijoind.one_client_ops_per_s", unit: "1/s", better: "higher", moves: "ops_per_s", on: cold},
	{name: "ijoind.two_client_ops_per_s", unit: "1/s", better: "higher", moves: "ops_per_s", on: []string{"serve-warm", "serve-cold"}},
	{name: "ijoind.resp_kb_per_op", unit: "KB", better: "lower", moves: "op_p50_ms", on: warm},
	{name: "ijoind.rejected_429", unit: "count", better: "lower", moves: "none"},
	{name: "ijoind.rss_mb_per_1k_ops", unit: "MB", better: "lower", moves: "peak_rss_mb", on: cold},
	{name: "ijoind.gc_pause_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: []string{"serve-warm", "serve-cold"}},
	{name: "live.scrape_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "obs.trace_overhead_ratio", unit: "ratio", better: "lower", moves: "none"},
	{name: "obs.phase.feed_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparseCold},
	{name: "obs.phase.map_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparseCold},
	{name: "obs.phase.merge_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: sparse},
	{name: "obs.phase.reduce_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: skewMatrix},
	{name: "obs.phase.output_ms", unit: "ms", better: "lower", moves: "op_p50_ms", on: skewMatrix},
	{name: "waterfall.unattributed_ms", unit: "ms", better: "lower", moves: "none"},
	{name: "host.calib_ms", unit: "ms", better: "lower", moves: "none"},
}

// layerUnit is the catalogue's unit for a per-layer metric.
func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// checkCatalog warns when a traced run and the catalogue disagree on the
// set of per-layer metrics; the test suite turns the same check into a
// failure.
func checkCatalog(got map[string]metric) {
	if missing, extra := catalogDiff(got); len(missing)+len(extra) > 0 {
		fmt.Fprintf(os.Stderr, "bench: per-layer metrics differ from the catalogue: missing [%s], uncatalogued [%s]\n",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
}

func catalogDiff(got map[string]metric) (missing, extra []string) {
	want := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		want[d.name] = true
		if _, ok := got[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	for _, name := range sortedKeys(got) {
		if !want[name] {
			extra = append(extra, name)
		}
	}
	return missing, extra
}
