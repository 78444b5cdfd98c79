// Command experiments regenerates the paper's tables and figures on the
// built-in MapReduce engine.
//
// Usage:
//
//	experiments [-exp table1|table2|figure4|figure5a|figure5b|table3|table4|all|list] \
//	            [-scale 0.002] [-seed 1] [-workers N] [-verify] \
//	            [-trace trace.json] [-metrics metrics.json]
//
// Scale multiplies the paper's dataset sizes; the default keeps every
// experiment in seconds. -verify additionally checks every algorithm's
// output against the in-memory oracle (slow).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"intervaljoin/internal/exp"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
)

func main() {
	var (
		id      = flag.String("exp", "all", "experiment id, 'all', or 'list'")
		scale   = flag.Float64("scale", 0, "fraction of the paper's dataset sizes (default 0.002)")
		seed    = flag.Int64("seed", 1, "workload seed")
		workers = flag.Int("workers", 0, "engine parallelism (0 = GOMAXPROCS)")
		verify  = flag.Bool("verify", false, "cross-check every run against the oracle")

		adaptive = flag.Bool("adaptive", false, "skew-aware execution: adaptive boundaries and virtual reducer splitting")
		asJSON   = flag.Bool("json", false, "emit JSON instead of aligned text")
		traceTo  = flag.String("trace", "", "write a Chrome trace_event timeline of every run here (open in Perfetto)")
		metrTo   = flag.String("metrics", "", "write the aggregate metrics.json report of every run here")
	)
	flag.Parse()

	if *id == "list" {
		for _, e := range exp.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}
	var tracer *obs.Tracer
	if *traceTo != "" || *metrTo != "" {
		tracer = obs.New(obs.Options{})
	}
	cfg := exp.Config{Scale: *scale, Seed: *seed, Workers: *workers, Verify: *verify, Adaptive: *adaptive, Tracer: tracer}
	var exps []exp.Experiment
	if *id == "all" {
		exps = exp.All()
	} else {
		e, err := exp.ByID(*id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		exps = []exp.Experiment{e}
	}
	for _, e := range exps {
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *asJSON {
			b, err := table.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiment %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			os.Stdout.Write(b)
			fmt.Println()
			continue
		}
		table.Render(os.Stdout)
	}
	if *traceTo != "" {
		writeFileWith(*traceTo, func(w io.Writer) error { return mr.WriteChromeTrace(w, tracer) })
	}
	if *metrTo != "" {
		writeFileWith(*metrTo, func(w io.Writer) error { return mr.WriteMetricsJSON(w, "experiments:"+*id, tracer, nil) })
	}
}

// writeFileWith creates path, streams fn's output into it, and exits on
// failure.
func writeFileWith(path string, fn func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		if err = fn(f); err != nil {
			f.Close()
		} else {
			err = f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
