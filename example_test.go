package intervaljoin_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"intervaljoin"
	"intervaljoin/gen"
	"intervaljoin/mawi"
)

// The basic flow: parse a query, bind relations by name, run, read tuples.
func Example() {
	eng := intervaljoin.MustNewEngine(intervaljoin.EngineOptions{Workers: 2})
	q, _ := intervaljoin.ParseQuery("calls overlaps outages")

	calls := intervaljoin.FromIntervals("calls", []intervaljoin.Interval{
		intervaljoin.NewInterval(100, 130), // call 0
		intervaljoin.NewInterval(500, 520), // call 1
	})
	outages := intervaljoin.FromIntervals("outages", []intervaljoin.Interval{
		intervaljoin.NewInterval(120, 200), // outage 0 overlaps call 0
	})

	res, _ := eng.Run(q, []*intervaljoin.Relation{calls, outages}, intervaljoin.RunOptions{Partitions: 4})
	for _, t := range res.Tuples {
		fmt.Printf("call %d overlapped outage %d\n", t[0], t[1])
	}
	// Output: call 0 overlapped outage 0
}

// Multi-way colocation queries run on RCCIS: three event logs joined by the
// chain "R1 overlaps R2 and R2 overlaps R3". The result carries the paper's
// cost metrics, and its rows are the nested-loop oracle's.
func ExampleEngine_Run() {
	eng := intervaljoin.MustNewEngine(intervaljoin.EngineOptions{Workers: 2})
	q, _ := intervaljoin.ParseQuery("R1 overlaps R2 and R2 overlaps R3")
	fmt.Printf("query: %s (class handled by %s)\n", q, intervaljoin.Plan(q).Name())

	r1 := intervaljoin.FromIntervals("R1", []intervaljoin.Interval{
		intervaljoin.NewInterval(0, 10),
		intervaljoin.NewInterval(40, 55),
		intervaljoin.NewInterval(100, 130),
	})
	r2 := intervaljoin.FromIntervals("R2", []intervaljoin.Interval{
		intervaljoin.NewInterval(5, 25),  // overlaps r1[0]
		intervaljoin.NewInterval(50, 70), // overlaps r1[1]
		intervaljoin.NewInterval(300, 310),
	})
	r3 := intervaljoin.FromIntervals("R3", []intervaljoin.Interval{
		intervaljoin.NewInterval(20, 35), // overlaps r2[0]
		intervaljoin.NewInterval(60, 90), // overlaps r2[1]
	})
	rels := []*intervaljoin.Relation{r1, r2, r3}

	res, err := eng.Run(q, rels, intervaljoin.RunOptions{Partitions: 4})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range res.Tuples {
		fmt.Printf("R1[%d] %v  R2[%d] %v  R3[%d] %v\n",
			t[0], r1.Tuples[t[0]].Key(),
			t[1], r2.Tuples[t[1]].Key(),
			t[2], r3.Tuples[t[2]].Key())
	}
	fmt.Println("tuples:", len(res.Tuples), "cycles:", res.Metrics.Cycles, "replicated:", res.ReplicatedIntervals)

	oracle, err := eng.Oracle(q, rels, intervaljoin.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if slices.Equal(oracle.IDs, res.IDs) {
		fmt.Println("verified against the oracle")
	} else {
		fmt.Printf("the oracle disagrees: %d rows, the run %d\n", len(oracle.Tuples), len(res.Tuples))
	}
	// Output:
	// query: R1 overlaps R2 and R2 overlaps R3 (class handled by rccis)
	// R1[0] [0,10]  R2[0] [5,25]  R3[0] [20,35]
	// R1[1] [40,55]  R2[1] [50,70]  R3[1] [60,90]
	// tuples: 2 cycles: 1 replicated: 0
	// verified against the oracle
}

// The planner classifies queries into the paper's four classes.
func ExamplePlan() {
	for _, qs := range []string{
		"A overlaps B and B overlaps C",
		"A before B and B before C",
		"A before B and A overlaps C",
		"A.x overlaps B.x and A.y overlaps B.y",
	} {
		q, _ := intervaljoin.ParseQuery(qs)
		fmt.Println(intervaljoin.Plan(q).Name())
	}
	// Output:
	// rccis
	// all-matrix
	// all-seq-matrix
	// gen-matrix
}

// Contradictory Allen conditions are detected before any data is read.
func ExampleProvablyEmpty() {
	q, _ := intervaljoin.ParseQuery("A before B and B before C and C before A")
	fmt.Println(intervaljoin.ProvablyEmpty(q))
	// Output: true
}

// Interval joins over real timestamps. On-call shifts and production
// incidents are written in the text interchange format with RFC 3339
// timestamps (parsed to Unix milliseconds). The colocation query
// "incident containedby shift" attributes every incident to the shift it
// fell inside, and the sequence query "first before second", a self-join,
// finds incident pairs separated by quiet time.
func Example_oncall() {
	const shiftsData = `# on-call shifts (start,end)
2024-03-01T00:00:00Z,2024-03-01T08:00:00Z
2024-03-01T08:00:00Z,2024-03-01T16:00:00Z
2024-03-01T16:00:00Z,2024-03-02T00:00:00Z
`
	const incidentsData = `# incidents (detected,resolved)
2024-03-01T02:15:00Z,2024-03-01T03:05:00Z
2024-03-01T09:30:00Z,2024-03-01T09:45:00Z
2024-03-01T10:10:00Z,2024-03-01T12:00:00Z
2024-03-01T21:00:00Z,2024-03-01T21:20:00Z
`
	dir, err := os.MkdirTemp("", "oncall")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	load := func(name, data string) *intervaljoin.Relation {
		path := filepath.Join(dir, name+".txt")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			log.Fatal(err)
		}
		rel, err := intervaljoin.LoadRelation(intervaljoin.NewSchema(name), path)
		if err != nil {
			log.Fatal(err)
		}
		return rel
	}
	shifts := load("shift", shiftsData)
	incidents := load("incident", incidentsData)
	clock := func(ms int64) string { return time.UnixMilli(ms).UTC().Format("15:04") }

	eng := intervaljoin.MustNewEngine(intervaljoin.EngineOptions{})
	q, _ := intervaljoin.ParseQuery("incident containedby shift")
	res, err := eng.Run(q, []*intervaljoin.Relation{incidents, shifts}, intervaljoin.RunOptions{Partitions: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("incident → shift attribution:")
	for _, t := range res.Tuples {
		inc := incidents.Tuples[t[0]].Key()
		sh := shifts.Tuples[t[1]].Key()
		fmt.Printf("  incident %s–%s  →  shift starting %s\n", clock(inc.Start), clock(inc.End), clock(sh.Start))
	}

	// The self-join binds the incident set under two names, each a shallow
	// copy with its own schema name.
	renamed := func(r *intervaljoin.Relation, name string) *intervaljoin.Relation {
		cp := *r
		cp.Schema.Name = name
		return &cp
	}
	q2, _ := intervaljoin.ParseQuery("first before second")
	res2, err := eng.Run(q2, []*intervaljoin.Relation{
		renamed(incidents, "first"), renamed(incidents, "second"),
	}, intervaljoin.RunOptions{PartitionsPerDim: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("incident orderings (before, with quiet time between): %d pairs\n", len(res2.Tuples))
	for _, t := range res2.Tuples {
		a := incidents.Tuples[t[0]].Key()
		b := incidents.Tuples[t[1]].Key()
		gap := time.Duration(b.Start-a.End) * time.Millisecond
		fmt.Printf("  %s resolved %s before %s began\n", clock(a.End), gap, clock(b.Start))
	}
	// Output:
	// incident → shift attribution:
	//   incident 02:15–03:05  →  shift starting 00:00
	//   incident 09:30–09:45  →  shift starting 08:00
	//   incident 10:10–12:00  →  shift starting 08:00
	//   incident 21:00–21:20  →  shift starting 16:00
	// incident orderings (before, with quiet time between): 6 pairs
	//   03:05 resolved 6h25m0s before 09:30 began
	//   03:05 resolved 7h5m0s before 10:10 began
	//   03:05 resolved 17h55m0s before 21:00 began
	//   09:45 resolved 25m0s before 10:10 began
	//   09:45 resolved 11h15m0s before 21:00 began
	//   12:00 resolved 9h0m0s before 21:00 began
}

// The paper's introductory spatio-temporal scenario. Per site, we have the
// time intervals during which high wind speed, high temperature and high
// pollutant concentration were observed. The join "temp containedby wind
// and pollutant containedby wind" finds every triple where both the
// temperature and the pollutant episodes fall entirely within one wind
// episode — the correlations a predictive pollution model would train on.
// The query is a colocation star, so the planner runs RCCIS.
func Example_pollution() {
	rng := rand.New(rand.NewSource(42))
	// episodes draws n random high-reading episodes within [0, span] with
	// durations in [minLen, maxLen].
	episodes := func(n int, span, minLen, maxLen int64) []intervaljoin.Interval {
		out := make([]intervaljoin.Interval, n)
		for i := range out {
			length := minLen + rng.Int63n(maxLen-minLen+1)
			start := rng.Int63n(span - length)
			out[i] = intervaljoin.NewInterval(start, start+length)
		}
		return out
	}
	// A day of measurements in minutes: long windy episodes, shorter
	// temperature and pollution spikes scattered through the day.
	const day = 24 * 60
	wind := intervaljoin.FromIntervals("wind", episodes(40, day, 60, 180))
	temp := intervaljoin.FromIntervals("temp", episodes(120, day, 10, 45))
	pollutant := intervaljoin.FromIntervals("pollutant", episodes(120, day, 10, 45))

	q, _ := intervaljoin.ParseQuery("temp containedby wind and pollutant containedby wind")
	fmt.Printf("query: %s\nplanner: %s\n", q, intervaljoin.Plan(q).Name())

	eng := intervaljoin.MustNewEngine(intervaljoin.EngineOptions{})
	res, err := eng.Run(q, []*intervaljoin.Relation{temp, wind, pollutant}, intervaljoin.RunOptions{Partitions: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d (temp, wind, pollutant) correlations; first few:\n", len(res.Tuples))
	for _, t := range res.Tuples[:5] {
		// Relation order in the query: temp, wind, pollutant.
		fmt.Printf("  wind %v ⊇ temp %v and pollutant %v\n",
			wind.Tuples[t[1]].Key(), temp.Tuples[t[0]].Key(), pollutant.Tuples[t[2]].Key())
	}
	fmt.Printf("cycles: %d; RCCIS replicated only %d of %d intervals\n",
		res.Metrics.Cycles, res.ReplicatedIntervals, wind.Len()+temp.Len()+pollutant.Len())
	// Output:
	// query: temp containedby wind and pollutant containedby wind
	// planner: rccis
	// found 3044 (temp, wind, pollutant) correlations; first few:
	//   wind [1008,1133] ⊇ temp [1074,1100] and pollutant [1094,1119]
	//   wind [1008,1133] ⊇ temp [1074,1100] and pollutant [1063,1097]
	//   wind [1008,1133] ⊇ temp [1074,1100] and pollutant [1039,1059]
	//   wind [1008,1133] ⊇ temp [1074,1100] and pollutant [1063,1101]
	//   wind [1008,1133] ⊇ temp [1074,1100] and pollutant [1046,1081]
	// cycles: 2; RCCIS replicated only 241 of 280 intervals
}

// The paper's cities-and-rivers example (Section 1). A rectangle is two
// intervals — its x extent and its y extent — so "find all cities
// intersecting a river" is a join on two interval attributes, which
// Gen-Matrix runs on a 4-D grid. Allen's overlaps is directional: the
// paper's literal query "city.x overlaps river.x and city.y overlaps
// river.y" finds the cities that start first and that the river extends
// past on both axes. Symmetric intersection is the union of every per-axis
// colocation combination, and it must equal direct rectangle intersection.
func Example_spatial() {
	rng := rand.New(rand.NewSource(7))
	// box draws an extent within [0, span] with side length in
	// [minSide, maxSide].
	box := func(span, minSide, maxSide int64) intervaljoin.Interval {
		side := minSide + rng.Int63n(maxSide-minSide+1)
		start := rng.Int63n(span - side)
		return intervaljoin.NewInterval(start, start+side)
	}
	// A 10,000 x 10,000 map: compact square-ish cities, long thin rivers.
	cities := intervaljoin.NewRelation(intervaljoin.NewSchema("city", "x", "y"))
	for i := 0; i < 3000; i++ {
		cities.Append(box(10_000, 100, 400), box(10_000, 100, 400))
	}
	rivers := intervaljoin.NewRelation(intervaljoin.NewSchema("river", "x", "y"))
	for i := 0; i < 40; i++ {
		rivers.Append(box(10_000, 2_000, 6_000), box(10_000, 100, 400))
	}
	rels := []*intervaljoin.Relation{cities, rivers}

	eng := intervaljoin.MustNewEngine(intervaljoin.EngineOptions{})
	opts := intervaljoin.RunOptions{PartitionsPerDim: 4}
	q, _ := intervaljoin.ParseQuery("city.x overlaps river.x and city.y overlaps river.y")
	fmt.Printf("query: %s\nplanner: %s (2 interval attributes -> 4-D grid)\n", q, intervaljoin.Plan(q).Name())
	res, err := eng.Run(q, rels, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strict-overlaps matches: %d pairs in %d cycles\n", len(res.Tuples), res.Metrics.Cycles)

	colocs := []string{"overlaps", "overlappedby", "contains", "containedby",
		"meets", "metby", "starts", "startedby", "finishes", "finishedby", "equals"}
	seen := make(map[[2]int64]bool)
	for _, px := range colocs {
		for _, py := range colocs {
			q, _ := intervaljoin.ParseQuery(fmt.Sprintf("city.x %s river.x and city.y %s river.y", px, py))
			r, err := eng.Run(q, rels, opts)
			if err != nil {
				log.Fatalf("%s: %v", q, err)
			}
			for _, t := range r.Tuples {
				seen[[2]int64{t[0], t[1]}] = true
			}
		}
	}
	fmt.Printf("symmetric intersection (all %d x %d Allen colocation combos): %d city-river pairs\n",
		len(colocs), len(colocs), len(seen))

	want := 0
	for _, c := range cities.Tuples {
		for _, r := range rivers.Tuples {
			if c.Attrs[0].Intersects(r.Attrs[0]) && c.Attrs[1].Intersects(r.Attrs[1]) {
				want++
			}
		}
	}
	if want == len(seen) {
		fmt.Println("verified against direct rectangle intersection")
	} else {
		fmt.Printf("the joins found %d pairs, geometry says %d\n", len(seen), want)
	}
	// Output:
	// query: city.x overlaps river.x and city.y overlaps river.y
	// planner: gen-matrix (2 interval attributes -> 4-D grid)
	// strict-overlaps matches: 44 pairs in 2 cycles
	// symmetric intersection (all 11 x 11 Allen colocation combos): 2665 city-river pairs
	// verified against direct rectangle intersection
}

// The paper's real-data workload (Section 6.2). A trans-Pacific backbone
// trace is simulated against Table 2's P04 profile, and packet trains are
// built with the 500 ms inter-arrival cut-off. Two of the paper's queries
// run on them: the star overlap self-join (which trains were on the wire
// together, Table 2's query) on RCCIS, and the sequence chain "T1 before T2
// and T2 before T3" (causally ordered train triples, Figure 5(b)'s query)
// on All-Matrix, whose grid evens out the load All-Replicate piles onto its
// right-most reducer. Both algorithms must return the same rows.
func Example_packetTrains() {
	profile, err := mawi.ProfileByName("P04")
	if err != nil {
		log.Fatal(err)
	}
	packets, err := mawi.Synthesize(profile, 0.01, 1)
	if err != nil {
		log.Fatal(err)
	}
	trains := mawi.BuildTrains(packets, mawi.DefaultCutoffMs)
	fmt.Printf("simulated %s (%s): %d packets -> %d packet trains (cut-off %d ms)\n",
		profile.Name, profile.Date, len(packets), len(trains), mawi.DefaultCutoffMs)
	named := func(trains []intervaljoin.Interval) []*intervaljoin.Relation {
		return []*intervaljoin.Relation{
			mawi.TrainsRelation("T1", trains),
			mawi.TrainsRelation("T2", trains),
			mawi.TrainsRelation("T3", trains),
		}
	}
	eng := intervaljoin.MustNewEngine(intervaljoin.EngineOptions{})

	// As in the paper, the train set is first replicated to a dense
	// fixed-size dataset. The trains are short against the 16 partitions,
	// so the planner's RCCIS skips the marking, splits every train a
	// bounded reach past its end and joins in one cycle: nothing is
	// replicated.
	dense := mawi.ReplicateTrains(trains, 3000, profile.DurationMs, 1)
	q1, _ := intervaljoin.ParseQuery("T1 overlaps T2 and T2 overlaps T3")
	res1, err := eng.Run(q1, named(dense), intervaljoin.RunOptions{Partitions: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlap star self-join on %d replicated trains (%s): %d concurrent train triples\n",
		len(dense), intervaljoin.Plan(q1).Name(), len(res1.Tuples))
	fmt.Printf("  %d cycles, replicated %d of %d intervals\n", res1.Metrics.Cycles, res1.ReplicatedIntervals, 3*len(dense))

	// The sequence chain runs on a sample: its output is cubic in the
	// sample size.
	seqRels := named(trains[:120])
	q2, _ := intervaljoin.ParseQuery("T1 before T2 and T2 before T3")
	matrix, err := eng.Run(q2, seqRels, intervaljoin.RunOptions{PartitionsPerDim: 6})
	if err != nil {
		log.Fatal(err)
	}
	allrep, err := intervaljoin.AlgorithmByName("all-rep")
	if err != nil {
		log.Fatal(err)
	}
	rep, err := eng.RunWith(allrep, q2, seqRels, intervaljoin.RunOptions{Partitions: 56})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequence chain on 120 sampled trains: %d ordered triples\n", len(matrix.Tuples))
	if !slices.Equal(rep.IDs, matrix.IDs) {
		fmt.Printf("  the algorithms disagree: all-rep %d rows, all-matrix %d\n", len(rep.Tuples), len(matrix.Tuples))
	}
	fmt.Printf("  all-matrix load: %s\n", intervaljoin.SummarizeLoad(matrix.Metrics.ReducerLoadVector()))
	fmt.Printf("  all-rep    load: %s\n", intervaljoin.SummarizeLoad(rep.Metrics.ReducerLoadVector()))
	// Output:
	// simulated P04 (01-01-04): 1995 packets -> 150 packet trains (cut-off 500 ms)
	// overlap star self-join on 3000 replicated trains (rccis): 178734 concurrent train triples
	//   1 cycles, replicated 0 of 9000 intervals
	// sequence chain on 120 sampled trains: 280014 ordered triples
	//   all-matrix load: n=56 min=36 max=87 mean=60.0 cov=0.17 max/mean=1.45 gini=0.09
	//   all-rep    load: n=56 min=3 max=242 mean=110.1 cov=0.68 max/mean=2.20 gini=0.39
}

// The library's decision support around the paper's algorithms. The cost
// model ranks the algorithms that apply to a colocation query from
// relation statistics, and the best one runs. On zipf-skewed starts,
// quantile (equi-depth) partition boundaries repair the reducer load
// imbalance of uniform-width partitions without changing the output.
// ExampleProvablyEmpty shows the third feature, satisfiability reasoning.
func Example_tuning() {
	q, _ := intervaljoin.ParseQuery("R1 overlaps R2 and R2 overlaps R3")
	generate := func(spec func(i int) gen.Spec) []*intervaljoin.Relation {
		rels := make([]*intervaljoin.Relation, 3)
		for i := range rels {
			r, err := gen.Generate(spec(i))
			if err != nil {
				log.Fatal(err)
			}
			rels[i] = r
		}
		return rels
	}

	// The advisor on a Table-1-style workload.
	rels := generate(func(i int) gen.Spec { return gen.Table1Spec(fmt.Sprintf("R%d", i+1), 3000, int64(i+1)) })
	ests, err := intervaljoin.Advise(q, rels, 16, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cost-model ranking (straggler load first):")
	for _, e := range ests {
		fmt.Printf("  %-14s est_pairs=%-9.0f est_max_load=%-8.0f cycles=%d\n",
			e.Algorithm, e.Pairs, e.MaxReducerLoad, e.Cycles)
	}
	eng := intervaljoin.MustNewEngine(intervaljoin.EngineOptions{})
	best, err := intervaljoin.AlgorithmByName(ests[0].Algorithm)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.RunWith(best, q, rels, intervaljoin.RunOptions{Partitions: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %s: %d tuples, %d pairs measured\n", ests[0].Algorithm, len(res.Tuples), res.Metrics.IntermediatePairs)

	// Equi-depth partitioning on zipf-skewed starts.
	skewed := generate(func(i int) gen.Spec {
		return gen.Spec{
			Name: fmt.Sprintf("R%d", i+1), NumIntervals: 200,
			StartDist: gen.Zipf, LengthDist: gen.Uniform,
			TMin: 0, TMax: 10_000, IMin: 1, IMax: 10, Seed: int64(i + 1),
		}
	})
	for _, equi := range []bool{false, true} {
		r, err := eng.Run(q, skewed, intervaljoin.RunOptions{Partitions: 16, EquiDepth: equi})
		if err != nil {
			log.Fatal(err)
		}
		name := "uniform-width"
		if equi {
			name = "equi-depth   "
		}
		fmt.Printf("%s partitions: output=%d %s\n", name, len(r.Tuples),
			intervaljoin.SummarizeLoad(r.Metrics.ReducerLoadVector()))
	}
	// Output:
	// cost-model ranking (straggler load first):
	//   2way-cascade   est_pairs=13661     est_max_load=854      cycles=2
	//   rccis          est_pairs=18694     est_max_load=1168     cycles=2
	//   all-rep        est_pairs=54000     est_max_load=6188     cycles=1
	// ran 2way-cascade: 3663 tuples, 12060 pairs measured
	// uniform-width partitions: output=10852 n=16 min=1 max=470 mean=37.8 cov=2.96 max/mean=12.45 gini=0.80
	// equi-depth    partitions: output=10852 n=14 min=178 max=326 mean=281.4 cov=0.14 max/mean=1.16 gini=0.06
}
