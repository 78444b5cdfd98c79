package cache_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"intervaljoin/internal/cache"
	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// digestEnv names the file TestServiceDigest writes to; unset, the test
// skips.
const digestEnv = "IJ_DIGEST_OUT"

// TestServiceDigest records what the service answers, one line per window,
// for scripts/digest.sh to compare across two trees: the service shape, the
// query, the window, the sha256 of the answer's RowsJSON, the sha256 of its
// rows put in canonical order (rowSetSum), and its DeltaRows. A change that
// moves only the rows' order moves the first sum and leaves the second.
// The window mix is fixed — fresh windows, repeats and shifted repeats, so
// cold misses, full hits and partial hits all come up, under a cache small
// enough to evict — and is asked of three queries under two service shapes.
// A shape sets ServiceConfig's Engine and Opts, which a tree whose delta
// joins run in line ignores; in a tree that still runs them on an engine,
// one shape spreads each over four reducers and the other runs it as one
// task, and the digests must agree with the in-line answers byte for byte.
// The file uses nothing but the service's exported API, so it compiles in
// older trees too.
func TestServiceDigest(t *testing.T) {
	path := os.Getenv(digestEnv)
	if path == "" {
		t.Skip(digestEnv + " names no output file")
	}
	rels := digestRelations(t)
	queries := []struct{ name, text string }{
		{"two-way", "R1 overlaps R2"},
		{"chain", "R1 overlaps R2 and R2 overlaps R3"},
		{"before", "R1 overlaps R2 and R1 before S"},
	}
	shapes := []struct {
		name    string
		workers int
		opts    core.Options
	}{
		{"k=4", 4, core.Options{Partitions: 4, PartitionsPerDim: 3}},
		{"one-task", 1, core.Options{Partitions: 1, PartitionsPerDim: 1}},
	}
	windows := digestWindows()

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := bufio.NewWriter(f)
	for _, shape := range shapes {
		for _, qc := range queries {
			q, err := query.Parse(qc.text)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := cache.NewService(cache.ServiceConfig{
				Engine:     mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: shape.workers}),
				CacheBytes: 256 << 10,
				Opts:       shape.opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range rels {
				if _, err := svc.Register(rel); err != nil {
					t.Fatal(err)
				}
			}
			for _, w := range windows {
				ans, err := svc.Query(q, w)
				if err != nil {
					t.Fatalf("%s %s [%d,%d]: %v", shape.name, qc.name, w.Lo, w.Hi, err)
				}
				fmt.Fprintf(out, "%s %s [%d,%d] %x set=%x %d\n", shape.name, qc.name, w.Lo, w.Hi,
					sha256.Sum256(ans.RowsJSON), rowSetSum(ans.Rows), ans.DeltaRows)
			}
		}
	}
	if err := out.Flush(); err != nil {
		t.Fatal(err)
	}
}

// rowSetSum is the sha256 of the rows in canonical order, each id eight
// bytes little-endian: the same for any two answers with the same rows,
// whatever order they hold them in.
func rowSetSum(rows []core.OutputTuple) []byte {
	sorted := slices.Clone(rows)
	slices.SortFunc(sorted, func(a, b core.OutputTuple) int { return slices.Compare(a, b) })
	h := sha256.New()
	for _, row := range sorted {
		for _, id := range row {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
		}
	}
	return h.Sum(nil)
}

// digestRelations are the residents: three of 2 000 Table 1-like intervals
// over [0, 20 000], and S, 60 of them, small enough to be joined whole
// through before. R2's tuples are shuffled and carry ids that are neither
// positions nor in order.
func digestRelations(t *testing.T) []*relation.Relation {
	t.Helper()
	var rels []*relation.Relation
	for i, name := range []string{"R1", "R2", "R3", "S"} {
		n := 2000
		if name == "S" {
			n = 60
		}
		rel, err := workload.Generate(workload.Spec{
			Name: name, NumIntervals: n, StartDist: workload.Uniform, LengthDist: workload.Uniform,
			TMin: 0, TMax: 20_000, IMin: 1, IMax: 120, Seed: int64(38 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	r2 := rels[1].Tuples
	rand.New(rand.NewSource(38)).Shuffle(len(r2), func(i, j int) { r2[i], r2[j] = r2[j], r2[i] })
	for i := range r2 {
		r2[i].ID = 5*r2[i].ID - 2000
	}
	return rels
}

// digestWindows is the fixed mix of 200 windows: fresh ones up to 1 500
// wide, some reaching past either end of the data, and repeats of earlier
// windows, as they were or shifted by up to 300.
func digestWindows() []cache.Window {
	rng := rand.New(rand.NewSource(38))
	windows := make([]cache.Window, 0, 200)
	for len(windows) < cap(windows) {
		switch k := rng.Intn(4); {
		case k == 0 && len(windows) > 0:
			windows = append(windows, windows[rng.Intn(len(windows))])
		case k == 1 && len(windows) > 0:
			w := windows[rng.Intn(len(windows))]
			d := interval.Point(rng.Intn(601) - 300)
			windows = append(windows, cache.Window{Lo: w.Lo + d, Hi: w.Hi + d})
		default:
			lo := interval.Point(rng.Intn(21_000) - 500)
			windows = append(windows, cache.Window{Lo: lo, Hi: lo + interval.Point(rng.Intn(1_500))})
		}
	}
	return windows
}
