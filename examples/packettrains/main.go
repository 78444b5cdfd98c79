// Packettrains: the paper's real-data workload (Section 6.2).
//
// A trans-Pacific backbone trace is simulated against the P04 profile from
// Table 2, packet trains are built with the 500 ms inter-arrival cut-off,
// and two of the paper's experiments run on them:
//
//  1. the star overlap self-join (which trains were on the wire together —
//     Table 2's query), solved by RCCIS; and
//  2. the sequence chain T1 before T2 and T2 before T3 (causally ordered
//     train triples — Figure 5(b)'s query), solved by All-Matrix, with the
//     load-balance comparison against All-Replicate that motivates it.
//
// Run with: go run ./examples/packettrains
package main

import (
	"fmt"
	"log"

	"intervaljoin"
	"intervaljoin/mawi"
)

func main() {
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

	eng := intervaljoin.MustNewEngine(intervaljoin.EngineOptions{})

	// Experiment 1: star overlap self-join. As in the paper, the train set
	// is first replicated to a dense fixed-size dataset; a self-join then
	// registers it under three names.
	dense := mawi.ReplicateTrains(trains, 3000, profile.DurationMs, 1)
	rels := []*intervaljoin.Relation{
		mawi.TrainsRelation("T1", dense),
		mawi.TrainsRelation("T2", dense),
		mawi.TrainsRelation("T3", dense),
	}
	q1, err := intervaljoin.ParseQuery("T1 overlaps T2 and T2 overlaps T3")
	if err != nil {
		log.Fatal(err)
	}
	res1, err := eng.Run(q1, rels, intervaljoin.RunOptions{Partitions: 16})
	if err != nil {
		log.Fatal(err)
	}
	// The replicated count is RCCIS's marking. When the trains are short
	// against the 16 partitions the planner skips the marking, splits every
	// train a bounded reach past its end and joins in one cycle: nothing is
	// replicated, and the count is 0.
	fmt.Printf("\noverlap star self-join on %d replicated trains (%s): %d concurrent train triples\n  %s\n  replicated %d of %d intervals\n",
		len(dense), intervaljoin.Plan(q1).Name(), len(res1.Tuples), res1.Metrics, res1.ReplicatedIntervals, 3*len(dense))

	// Experiment 2: sequence chain on a sample (the output is cubic in
	// the sample size).
	sample := trains
	if len(sample) > 120 {
		sample = sample[:120]
	}
	seqRels := []*intervaljoin.Relation{
		mawi.TrainsRelation("T1", sample),
		mawi.TrainsRelation("T2", sample),
		mawi.TrainsRelation("T3", sample),
	}
	q2, err := intervaljoin.ParseQuery("T1 before T2 and T2 before T3")
	if err != nil {
		log.Fatal(err)
	}
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
	if len(rep.Tuples) != len(matrix.Tuples) {
		log.Fatalf("algorithms disagree: %d vs %d", len(rep.Tuples), len(matrix.Tuples))
	}
	fmt.Printf("\nsequence chain on %d sampled trains: %d ordered triples\n", len(sample), len(matrix.Tuples))
	fmt.Printf("  all-matrix load: %s\n", intervaljoin.SummarizeLoad(matrix.Metrics.ReducerLoadVector()))
	fmt.Printf("  all-rep    load: %s\n", intervaljoin.SummarizeLoad(rep.Metrics.ReducerLoadVector()))
	fmt.Println("the grid flattens the straggler All-Replicate piles onto its right-most reducer")
}
