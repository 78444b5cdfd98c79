// Package exp contains one runner per table and figure of the paper's
// evaluation. Each runner generates the experiment's workload (scaled by a
// configurable factor so it fits a single machine), executes the compared
// algorithms on the MapReduce engine, and returns a Table whose rows mirror
// the paper's: who wins, by what factor, and where the crossovers fall.
//
// Times are reported as local wall-clock milliseconds and as the simulated
// cluster makespan (the slowest reduce task per cycle, modelling one reduce
// node per key as on the paper's 16-core Hadoop cluster), alongside the
// communication metrics (intermediate key-value pairs, replicated
// intervals) that drive them.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"intervaljoin/internal/cluster"
	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Config scales and seeds an experiment.
type Config struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full size). The
	// default 0.002 keeps every experiment in seconds on a laptop while
	// preserving the relative shapes.
	Scale float64
	// Seed makes workloads deterministic.
	Seed int64
	// Workers bounds engine parallelism; 0 means GOMAXPROCS.
	Workers int
	// Verify additionally runs the reference oracle and fails the
	// experiment if any algorithm's output differs. Expensive; intended
	// for tests.
	Verify bool
	// Adaptive enables skew-aware execution for every run: histogram-
	// driven partition boundaries plus virtual splitting of hot partitions
	// (core.Options.Adaptive).
	Adaptive bool
	// Tracer, when non-nil, records execution spans for every engine the
	// experiments construct — one shared timeline across all runs, so a
	// whole experiment can be inspected in Perfetto. Nil disables tracing.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.002
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scaled returns n scaled, at least 1.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Table is a rendered experiment result.
type Table struct {
	// ID is the paper artefact id ("table1", "figure5a", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header names.
	Columns []string
	// Rows are the data rows, parallel to Columns.
	Rows [][]string
	// Notes carry the expected shape and any caveats.
	Notes []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// RowMaps returns the rows as column-name -> cell maps, the structure the
// JSON output serialises.
func (t *Table) RowMaps() []map[string]string {
	out := make([]map[string]string, len(t.Rows))
	for i, row := range t.Rows {
		m := make(map[string]string, len(t.Columns))
		for j, c := range t.Columns {
			if j < len(row) {
				m[c] = row[j]
			}
		}
		out[i] = m
	}
	return out
}

// JSON renders the table as indented JSON with named row fields.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		ID    string              `json:"id"`
		Title string              `json:"title"`
		Rows  []map[string]string `json:"rows"`
		Notes []string            `json:"notes,omitempty"`
	}{t.ID, t.Title, t.RowMaps(), t.Notes}, "", "  ")
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Run is one algorithm execution's cost profile.
type Run struct {
	Algorithm  string
	WallMs     int64
	MakespanMs float64
	Pairs      int64
	// PhysPairs / ReplFactor profile the range-coalesced shuffle: the
	// records it actually stored versus the logical Pairs, and their ratio.
	PhysPairs  int64
	ReplFactor float64
	Replicated int64
	OutputRows int64
	// Imbalance is the join cycle's — the last's — largest reducer's pairs
	// over the mean: the keys of different cycles name different reducers.
	Imbalance float64
	Cycles    int
	// ClusterEst is the modelled wall time on the paper's 2014 cluster
	// (internal/cluster), rendered hh:mm in the tables.
	ClusterEst time.Duration
	Result     *core.Result
}

// execute runs one algorithm on a fresh in-memory engine and profiles it.
func execute(cfg Config, alg core.Algorithm, q *query.Query, rels []*relation.Relation, opts core.Options) (Run, error) {
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: cfg.Workers, Tracer: cfg.Tracer})
	opts.Adaptive = cfg.Adaptive
	ctx, err := core.NewContext(engine, q, rels, opts)
	if err != nil {
		return Run{}, err
	}
	start := time.Now()
	res, err := alg.Run(ctx)
	if err != nil {
		return Run{}, fmt.Errorf("exp: %s: %w", alg.Name(), err)
	}
	wall := time.Since(start)
	if cfg.Verify {
		refCtx, err := core.NewContext(engine, q, rels, opts)
		if err != nil {
			return Run{}, err
		}
		want, err := (core.Reference{}).Run(refCtx)
		if err != nil {
			return Run{}, err
		}
		if err := sameOutput(res, want); err != nil {
			return Run{}, fmt.Errorf("exp: %s: %w", alg.Name(), err)
		}
	}
	imbalance := 1.0
	if n := len(res.PerCycle); n > 0 {
		imbalance = res.PerCycle[n-1].LoadImbalance()
	}
	est, err := cluster.Estimate(cluster.Paper2014(), scaleMetrics(res.Metrics, 1/cfg.Scale))
	if err != nil {
		return Run{}, err
	}
	return Run{
		Algorithm:  alg.Name(),
		WallMs:     wall.Milliseconds(),
		MakespanMs: float64(res.Metrics.SimulatedMakespan().Microseconds()) / 1000,
		Pairs:      res.Metrics.IntermediatePairs,
		PhysPairs:  res.Metrics.PhysicalPairs,
		ReplFactor: res.Metrics.ReplicationFactor(),
		Replicated: res.ReplicatedIntervals,
		OutputRows: int64(len(res.Tuples)),
		Imbalance:  imbalance,
		Cycles:     res.Metrics.Cycles,
		ClusterEst: est,
		Result:     res,
	}, nil
}

// scaleMetrics linearly extrapolates a scaled-down run's communication
// metrics back to full size, so the cluster-time model speaks in the
// paper's magnitudes. Communication volumes scale linearly with data size
// under the experiments' uniform workloads; join output (not modelled) can
// scale faster, so the estimates are lower bounds at full scale.
func scaleMetrics(m *mr.Metrics, f float64) *mr.Metrics {
	out := mr.NewMetrics(m.Job + "-scaled")
	out.Cycles = m.Cycles
	out.MapInputRecords = int64(float64(m.MapInputRecords) * f)
	out.IntermediatePairs = int64(float64(m.IntermediatePairs) * f)
	for k, v := range m.ReducerPairs {
		out.ReducerPairs[k] = int64(float64(v) * f)
	}
	return out
}

// sameOutput compares a run's rows with the oracle's in their canonical
// form: rows in strictly increasing order — so none repeats — and the same
// ids slab.
func sameOutput(got, want *core.Result) error {
	for i := 1; i < len(got.Tuples); i++ {
		if slices.Compare(got.Tuples[i-1], got.Tuples[i]) >= 0 {
			return fmt.Errorf("row %d %v does not follow row %d %v: duplicate or out of order",
				i, got.Tuples[i], i-1, got.Tuples[i-1])
		}
	}
	if len(got.Tuples) != len(want.Tuples) || len(got.IDs) != len(want.IDs) {
		return fmt.Errorf("output has %d tuples (%d ids), oracle %d (%d ids)",
			len(got.Tuples), len(got.IDs), len(want.Tuples), len(want.IDs))
	}
	if slices.Equal(got.IDs, want.IDs) {
		return nil
	}
	for i := range got.Tuples {
		if !slices.Equal(got.Tuples[i], want.Tuples[i]) {
			return fmt.Errorf("row %d is %v, oracle's is %v", i, got.Tuples[i], want.Tuples[i])
		}
	}
	return fmt.Errorf("the ids slab differs from the oracle's, its rows do not")
}

// fmtCount renders large counts compactly (12.3K, 4.5M).
func fmtCount(n int64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// Experiment is a named runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Q1 colocation join, varying data size (Section 6.2)", Table1},
		{"table1-params", "Q1 sweep over start distributions and max lengths (Section 6.2, unprinted)", Table1Params},
		{"table2", "star overlap self-join on packet-train traces (Section 6.2)", Table2},
		{"figure4", "load balance: All-Rep vs All-Matrix on a 2-way before join (Section 7)", Figure4},
		{"figure5a", "Q2 sequence join on synthetic data (Section 7.1)", Figure5a},
		{"figure5b", "Q2 sequence join on trace P04 samples (Section 7.1)", Figure5b},
		{"table3", "Q4 hybrid join, varying R3 max length (Section 8.2)", Table3},
		{"table4", "Q5 Gen-Matrix, varying relation sizes (Section 9.1)", Table4},
		{"ablation-d1d2", "All-Matrix without D1/D2 routing conditions (DESIGN §6)", AblationD1D2},
		{"ablation-partitions", "All-Matrix partitions-per-dimension sweep (DESIGN §6)", AblationPartitions},
		{"ablation-pruning", "PASM under zero-pruning adversarial workload (DESIGN §6)", AblationPruning},
		{"ablation-skew", "equi-depth vs uniform partitioning on zipf-skewed data (DESIGN §6)", AblationSkew},
		{"ablation-range-shuffle", "range-coalesced shuffle: logical vs physical volume per algorithm", AblationRangeShuffle},
		{"querymix", "semantic segment cache on zipfian query mixes (ijoind, DESIGN §cache)", QueryMix},
		{"advisor", "cost model predictions vs measurements (Section 7.2 future work)", AdvisorValidation},
	}
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}
