package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
)

// coreDigestEnv names the file TestCoreDigest writes to; unset, the test
// skips.
const coreDigestEnv = "IJ_CORE_DIGEST_OUT"

// TestCoreDigest records what every algorithm answers and how it routes, one
// line per run, for scripts/digest.sh to compare across two trees: the case
// — query class, the algorithm's role and name, and the plan mode — the
// sha256 of Result.IDs, per cycle the logical and physical pairs, the
// reduce keys, the pairs per key and the records written, and per run the
// replicated and pruned interval counts. It runs TestRoutingGolden's queries
// and inputs under uniform, equi-depth, adaptive and force-split plans,
// through the oracle, the planner (both ways) and every algorithm of the
// query's class. A role names the three the list opens with, which may
// share a name with each other or with a named algorithm; the named ones
// are "named", so adding or dropping one moves no other line. It uses only
// what older trees have too, so it runs there.
func TestCoreDigest(t *testing.T) {
	path := os.Getenv(coreDigestEnv)
	if path == "" {
		t.Skip(coreDigestEnv + " names no output file")
	}
	modes := []struct {
		name string
		opts Options
	}{
		{"uniform", Options{}},
		{"equi-depth", Options{EquiDepth: true}},
		{"adaptive", Options{Adaptive: true}},
		{"force-split", Options{Adaptive: true, SplitThreshold: 0.01, MaxVirtual: 3}},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := bufio.NewWriter(f)
	rng := rand.New(rand.NewSource(1606))
	for _, qc := range routingQueries {
		q := query.MustParse(qc.q)
		rels := routingRelations(rng, q)
		algs := append([]Algorithm{Reference{}, Plan(q, false), Plan(q, true)}, Algorithms(q)...)
		for i, alg := range algs {
			role := "named"
			if i < 3 {
				role = []string{"oracle", "planner", "planner-adaptive"}[i]
			}
			for _, mode := range modes {
				opts := mode.opts
				opts.Partitions, opts.PartitionsPerDim = 6, 4
				ctx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4}), q, rels, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := alg.Run(ctx)
				if err != nil {
					t.Fatalf("%s on %q (%s): %v", alg.Name(), qc.q, mode.name, err)
				}
				fmt.Fprintf(out, "%s %s %s %s: %s\n", qc.class, role, alg.Name(), mode.name, digestLine(res))
			}
		}
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
}

// digestLine renders a run's answer and routing.
func digestLine(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	for _, id := range res.IDs {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ids=%x replicated=%d pruned=%v", h.Sum(nil), res.ReplicatedIntervals, res.PrunedIntervals)
	for i, m := range res.PerCycle {
		keys := make([]int64, 0, len(m.ReducerPairs))
		for k := range m.ReducerPairs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Fprintf(&b, " | c%d pairs=%d phys=%d keys=%d out=%d per-key=", i+1,
			m.IntermediatePairs, m.PhysicalPairs, m.DistinctKeys, m.OutputRecords)
		for j, k := range keys {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d:%d", k, m.ReducerPairs[k])
		}
	}
	return b.String()
}
