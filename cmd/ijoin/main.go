// Command ijoin runs a multi-way interval join query over text interval
// files on the built-in MapReduce engine.
//
// Usage:
//
//	ijoin -query "R1 overlaps R2 and R2 overlaps R3" \
//	      -rel R1=a.txt -rel R2=b.txt -rel R3=c.txt \
//	      [-algorithm rccis] [-partitions 16|auto] [-per-dim 6] \
//	      [-adaptive] [-resplit N] \
//	      [-o out.txt] [-stats] \
//	      [-trace trace.json] [-metrics metrics.json]
//
// Input files hold one tuple per line; each attribute is "start,end" and
// attributes are separated by '|'. A self-join registers the same file
// under several relation names. With no -algorithm the paper's recommended
// algorithm for the query's class is used. The output holds one line per
// result: the joined tuples' line numbers (0-based), comma-separated in
// query relation order.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"intervaljoin"
)

type relArg struct {
	name, path string
}

func main() {
	var (
		queryStr   = flag.String("query", "", "join query, e.g. \"R1 overlaps R2 and R2 before R3\"")
		algorithm  = flag.String("algorithm", "", "algorithm (default: planner choice); see -list-algorithms")
		advise     = flag.Bool("advise", false, "print the cost model's algorithm ranking instead of running")
		partFlag   = flag.String("partitions", "16", "partitions for 1-D algorithms, or 'auto' to let the cost model choose")
		perDim     = flag.Int("per-dim", 6, "partitions per grid dimension for matrix algorithms")
		workers    = flag.Int("workers", 0, "engine parallelism (0 = GOMAXPROCS)")
		equiDepth  = flag.Bool("equi-depth", false, "derive partition boundaries from start-point quantiles (for skewed data)")
		adaptive   = flag.Bool("adaptive", false, "skew-aware execution: histogram-driven boundaries plus virtual splitting of hot partitions")
		maxVirtual = flag.Int("max-virtual", 0, "with -adaptive, cap on virtual reducers per split partition (0 = default 8)")
		resplitAt  = flag.Int("resplit", 0, "re-split a reduce task over spare workers once its value list reaches N (0 = off)")
		oPath      = flag.String("o", "-", "output file ('-' = stdout)")
		emit       = flag.String("emit", "ids", "output format: ids (line numbers) | tuples (full interval values)")
		showStats  = flag.Bool("stats", false, "print run metrics to stderr")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON timeline here (open in Perfetto)")
		metricsOut = flag.String("metrics", "", "write the machine-readable metrics.json report here")
		pprofTags  = flag.Bool("pprof-labels", false, "attach pprof labels (algorithm, cycle) to reduce tasks; needs -trace or -metrics")
		listAlgos  = flag.Bool("list-algorithms", false, "list algorithm names and exit")
	)
	var rels []relArg
	flag.Func("rel", "relation binding name=file (repeatable)", func(s string) error {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq == len(s)-1 {
			return fmt.Errorf("want name=file, got %q", s)
		}
		rels = append(rels, relArg{name: s[:eq], path: s[eq+1:]})
		return nil
	})
	flag.Parse()

	if *listAlgos {
		for _, n := range intervaljoin.AlgorithmNames() {
			fmt.Println(n)
		}
		return
	}
	if *queryStr == "" {
		fatal(fmt.Errorf("missing -query"))
	}
	q, err := intervaljoin.ParseQuery(*queryStr)
	if err != nil {
		fatal(err)
	}
	if intervaljoin.ProvablyEmpty(q) {
		fmt.Fprintln(os.Stderr, "ijoin: query is provably empty (contradictory Allen conditions); nothing to run")
		return
	}
	if len(rels) != len(q.Relations) {
		fatal(fmt.Errorf("query references %d relations, %d -rel bindings given", len(q.Relations), len(rels)))
	}

	bound := make([]*intervaljoin.Relation, 0, len(rels))
	for _, ra := range rels {
		ri := q.RelIndex(ra.name)
		if ri < 0 {
			fatal(fmt.Errorf("relation %s does not appear in the query", ra.name))
		}
		rel, err := intervaljoin.LoadRelation(q.Relations[ri], ra.path)
		if err != nil {
			fatal(err)
		}
		bound = append(bound, rel)
	}

	partitions, autoK := 0, false
	if *partFlag == "auto" {
		partitions = intervaljoin.AdvisePartitions(bound, nil)
		autoK = true
		fmt.Fprintf(os.Stderr, "ijoin: -partitions auto chose k=%d\n", partitions)
	} else {
		k, err := strconv.Atoi(*partFlag)
		if err != nil || k <= 0 {
			fatal(fmt.Errorf("-partitions wants a positive count or 'auto', got %q", *partFlag))
		}
		partitions = k
	}

	if *advise {
		ests, err := intervaljoin.Advise(q, bound, partitions, *perDim)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-16s %14s %14s %7s\n", "algorithm", "est_pairs", "est_max_load", "cycles")
		for _, e := range ests {
			fmt.Printf("%-16s %14.0f %14.0f %7d\n", e.Algorithm, e.Pairs, e.MaxReducerLoad, e.Cycles)
		}
		if intervaljoin.RecommendEquiDepth(bound, partitions) {
			fmt.Println("note: skewed start points detected — consider equi-depth partitioning (RunOptions.EquiDepth)")
		}
		return
	}

	var tracer *intervaljoin.Tracer
	if *tracePath != "" || *metricsOut != "" {
		tracer = intervaljoin.NewTracer(intervaljoin.TracerOptions{PprofLabels: *pprofTags})
	}
	eng, err := intervaljoin.NewEngine(intervaljoin.EngineOptions{
		Workers:              *workers,
		Tracer:               tracer,
		ResplitPairThreshold: *resplitAt,
	})
	if err != nil {
		fatal(err)
	}
	opts := intervaljoin.RunOptions{
		Partitions:       partitions,
		PartitionsPerDim: *perDim,
		EquiDepth:        *equiDepth,
		Adaptive:         *adaptive,
		MaxVirtual:       *maxVirtual,
		AutoPartitions:   autoK,
	}

	var res *intervaljoin.Result
	if *algorithm == "" {
		res, err = eng.Run(q, bound, opts)
	} else {
		alg, algErr := intervaljoin.AlgorithmByName(*algorithm)
		if algErr != nil {
			fatal(algErr)
		}
		res, err = eng.RunWith(alg, q, bound, opts)
	}
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
	case "ids":
		for _, t := range res.Tuples {
			fmt.Fprintln(w, t.Key())
		}
	case "tuples":
		// Bound relations in query order, so ids resolve positionally.
		byQuery := make([]*intervaljoin.Relation, len(q.Relations))
		for _, rel := range bound {
			byQuery[q.RelIndex(rel.Schema.Name)] = rel
		}
		for _, t := range res.Tuples {
			for ri, id := range t {
				if ri > 0 {
					fmt.Fprint(w, "  ")
				}
				tup := byQuery[ri].Tuples[id]
				fmt.Fprintf(w, "%s[%d]=", q.Relations[ri].Name, id)
				for ai, iv := range tup.Attrs {
					if ai > 0 {
						fmt.Fprint(w, "|")
					}
					fmt.Fprint(w, iv)
				}
			}
			fmt.Fprintln(w)
		}
	default:
		fatal(fmt.Errorf("unknown -emit %q (want ids or tuples)", *emit))
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
	if *showStats {
		fmt.Fprintf(os.Stderr, "algorithm=%s tuples=%d %s replicated=%d\n",
			res.Algorithm, len(res.Tuples), res.Metrics, res.ReplicatedIntervals)
	}
	if *tracePath != "" {
		if err := writeFileWith(*tracePath, eng.WriteTrace); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := writeFileWith(*metricsOut, func(w io.Writer) error { return eng.WriteMetrics(w, res) }); err != nil {
			fatal(err)
		}
	}
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ijoin:", err)
	os.Exit(1)
}
