// Command packettrace synthesises an Internet packet trace calibrated to
// one of the paper's MAWI profiles (Table 2) and emits either the raw
// packets or the packet-train intervals built with the inter-arrival
// cut-off.
//
// Usage:
//
//	packettrace -profile P04 [-scale 0.01] [-seed 1] [-cutoff 500] \
//	            [-emit trains|packets] [-replicate N] [-o out.txt]
//
// Train output is one "start,end" interval per line (milliseconds within
// the 15-minute window), directly consumable by ijoin. -replicate grows the
// train set to N intervals by jittered copying, the paper's procedure for
// its fixed 3M-train datasets.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"intervaljoin/internal/trace"
)

func main() {
	var (
		profileName = flag.String("profile", "P04", "trace profile: P03..P08")
		scale       = flag.Float64("scale", 0.01, "fraction of the profile's packet count")
		seed        = flag.Int64("seed", 1, "generator seed")
		cutoff      = flag.Int64("cutoff", trace.DefaultCutoffMs, "train inter-arrival cut-off (ms)")
		emit        = flag.String("emit", "trains", "what to write: trains|packets")
		replicate   = flag.Int("replicate", 0, "replicate trains to this count (0 = off)")
		oPath       = flag.String("o", "-", "output file ('-' = stdout)")
	)
	flag.Parse()

	profile, err := trace.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	packets, err := trace.Synthesize(profile, *scale, *seed)
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

	switch *emit {
	case "packets":
		for _, p := range packets {
			fmt.Fprintf(w, "%d %d\n", p.Flow, p.Time)
		}
	case "trains":
		trains := trace.BuildTrains(packets, *cutoff)
		if *replicate > 0 {
			trains = trace.ReplicateTrains(trains, *replicate, profile.DurationMs, *seed)
		}
		for _, iv := range trains {
			fmt.Fprintf(w, "%d,%d\n", iv.Start, iv.End)
		}
	default:
		fatal(fmt.Errorf("unknown -emit %q (want trains or packets)", *emit))
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
	fmt.Fprintln(os.Stderr, "packettrace:", err)
	os.Exit(1)
}
