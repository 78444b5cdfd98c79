package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// runSet is the runs of one side of a comparison, keyed by workload; a
// side given as several files holds several runs per workload.
type runSet map[string][]runRecord

func loadRunSet(list string) (runSet, error) {
	set := make(runSet)
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Runs {
			if r.Trace == 0 {
				set[r.Workload] = append(set[r.Workload], r)
			}
		}
	}
	return set, nil
}

// values collects one metric over a side's runs of a workload. A side of
// one run is noisy when that run is marked so; with several runs their
// spread says the same thing better.
func values(runs []runRecord, name string) (vals []float64, noisy bool) {
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals, len(runs) == 1 && runs[0].Noisy
}

// ownSpread is a metric's run-to-run spread on one side: the quartile
// distance of the sets when there are several, otherwise — for the
// latency metrics, which are read off the per-op samples — of those.
func ownSpread(runs []runRecord, name string, vals []float64) float64 {
	if len(vals) > 1 {
		return spread(vals)
	}
	if len(runs) == 1 && strings.HasPrefix(name, "op_p") {
		return spread(runs[0].Samples)
	}
	return 0
}

// verdict judges new against old for one metric under its bound.
func verdict(d metricDef, oldV, newV float64, unresolved bool) string {
	worse := newV > oldV*(1+d.bound)
	if d.better == "higher" {
		worse = newV < oldV*(1-d.bound)
	}
	switch {
	case unresolved:
		return "unresolved"
	case worse:
		return "worse"
	}
	return "within"
}

// compareFiles prints, for every end-to-end metric on every workload, the
// old and new medians, their ratio with its base, the bound and a
// verdict. It returns 1 when any pair is worse.
func compareFiles(w io.Writer, oldList, newList string) int {
	oldSet, err := loadRunSet(oldList)
	if err == nil {
		var newSet runSet
		if newSet, err = loadRunSet(newList); err == nil {
			return compareSets(w, oldSet, newSet)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSets(w io.Writer, oldSet, newSet runSet) int {
	code := 0
	fmt.Fprintf(w, "%-13s %-16s %12s %12s  %-24s %6s  %s\n", "workload", "metric", "old", "new", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			oldV, oldNoisy := values(oldSet[wl.name], d.name)
			newV, newNoisy := values(newSet[wl.name], d.name)
			if len(oldV) == 0 || len(newV) == 0 {
				continue
			}
			unresolved := oldNoisy || newNoisy ||
				ownSpread(oldSet[wl.name], d.name, oldV) > d.bound ||
				ownSpread(newSet[wl.name], d.name, newV) > d.bound
			o, n := median(oldV), median(newV)
			v := verdict(d, o, n, unresolved)
			if v == "worse" {
				code = 1
			}
			ratio := fmt.Sprintf("%.3f (new / old %.4g)", n/o, o)
			fmt.Fprintf(w, "%-13s %-16s %12.4f %12.4f  %-24s %5.0f%%  %s\n", wl.name, d.name, o, n, ratio, 100*d.bound, v)
		}
	}
	return code
}
