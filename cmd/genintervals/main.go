// Command genintervals generates synthetic interval datasets with the
// paper's workload parameters and writes them as text files consumable by
// the ijoin command (one "start,end" interval per line; multi-attribute
// rows separate attributes with '|').
//
// Usage:
//
//	genintervals -n 100000 -ds uniform -di uniform \
//	             -tmin 0 -tmax 100000 -imin 1 -imax 100 \
//	             [-seed 1] [-o intervals.txt]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"intervaljoin/internal/workload"
)

func main() {
	var (
		n     = flag.Int("n", 1000, "number of intervals (nI)")
		ds    = flag.String("ds", "uniform", "start distribution: uniform|normal|zipf|exponential (dS)")
		di    = flag.String("di", "uniform", "length distribution (dI)")
		tmin  = flag.Int64("tmin", 0, "range lower bound")
		tmax  = flag.Int64("tmax", 100_000, "range upper bound")
		imin  = flag.Int64("imin", 1, "minimum interval length")
		imax  = flag.Int64("imax", 100, "maximum interval length")
		seed  = flag.Int64("seed", 1, "generator seed")
		oPath = flag.String("o", "-", "output file ('-' = stdout)")
	)
	flag.Parse()

	startDist, err := workload.ParseDistribution(*ds)
	if err != nil {
		fatal(err)
	}
	lenDist, err := workload.ParseDistribution(*di)
	if err != nil {
		fatal(err)
	}
	rel, err := workload.Generate(workload.Spec{
		Name: "R", NumIntervals: *n,
		StartDist: startDist, LengthDist: lenDist,
		TMin: *tmin, TMax: *tmax, IMin: *imin, IMax: *imax, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}

	out := os.Stdout
	if *oPath != "-" {
		if out, err = os.Create(*oPath); err != nil {
			fatal(err)
		}
	}
	w := bufio.NewWriter(out)
	for _, iv := range rel.Intervals() {
		fmt.Fprintf(w, "%d,%d\n", iv.Start, iv.End)
	}
	// A write that fails late — a full disk, a write-back error the file
	// system reports at close — leaves a truncated file: say so, with the
	// path (the *PathError carries it), and exit non-zero.
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if *oPath != "-" {
		if err := out.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genintervals:", err)
	os.Exit(1)
}
