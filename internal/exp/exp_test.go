package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"intervaljoin/internal/core"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// tiny is the configuration used by the experiment smoke tests: very small,
// deterministic, and oracle-verified.
var tiny = Config{Scale: 0.0005, Seed: 3, Workers: 4, Verify: true}

func cell(t *Table, row int, col string) string {
	for i, c := range t.Columns {
		if c == col {
			return t.Rows[row][i]
		}
	}
	return ""
}

func cellFloat(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	s := cell(tab, row, col)
	s = strings.TrimSuffix(s, "K")
	s = strings.TrimSuffix(s, "M")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %s[%d] = %q not numeric", col, row, cell(tab, row, col))
	}
	raw := cell(tab, row, col)
	switch {
	case strings.HasSuffix(raw, "K"):
		v *= 1e3
	case strings.HasSuffix(raw, "M"):
		v *= 1e6
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab, err := Table1(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	for r := range tab.Rows {
		replRCCIS := cellFloat(t, tab, r, "repl_rccis")
		replAllRep := cellFloat(t, tab, r, "repl_allrep")
		if replRCCIS >= replAllRep {
			t.Errorf("row %d: RCCIS replicated %v >= All-Rep %v", r, replRCCIS, replAllRep)
		}
		pairsRCCIS := cellFloat(t, tab, r, "pairs_rccis")
		pairsAllRep := cellFloat(t, tab, r, "pairs_allrep")
		if pairsRCCIS >= pairsAllRep {
			t.Errorf("row %d: RCCIS pairs %v >= All-Rep pairs %v", r, pairsRCCIS, pairsAllRep)
		}
	}
	// Sizes rise monotonically.
	if cellFloat(t, tab, 0, "nI") >= cellFloat(t, tab, 3, "nI") {
		t.Error("size ladder not rising")
	}
}

func TestTable1ParamsShape(t *testing.T) {
	tab, err := Table1Params(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 4 distributions x 3 lengths", len(tab.Rows))
	}
	for r := range tab.Rows {
		if cellFloat(t, tab, r, "repl_rccis") >= cellFloat(t, tab, r, "repl_allrep") {
			t.Errorf("row %d (%s, i_max=%s): RCCIS replication not below All-Rep",
				r, cell(tab, r, "dS"), cell(tab, r, "i_max"))
		}
		if cellFloat(t, tab, r, "pairs_rccis") >= cellFloat(t, tab, r, "pairs_allrep") {
			t.Errorf("row %d: RCCIS pairs not below All-Rep", r)
		}
	}
	// Replication grows with interval length within each distribution.
	for d := 0; d < 4; d++ {
		short := cellFloat(t, tab, d*3, "repl_rccis")
		long := cellFloat(t, tab, d*3+2, "repl_rccis")
		if long < short {
			t.Errorf("distribution %s: longer intervals replicated less (%v vs %v)",
				cell(tab, d*3, "dS"), long, short)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	cfg := tiny
	cfg.Scale = 0.0004 // enough packets to form trains, small enough to verify
	tab, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 traces", len(tab.Rows))
	}
	for r := range tab.Rows {
		if cellFloat(t, tab, r, "pairs_rccis") >= cellFloat(t, tab, r, "pairs_cascade") {
			t.Errorf("trace %s: RCCIS pairs not below cascade", cell(tab, r, "trace"))
		}
	}
	if cell(tab, 0, "trace") != "P03" || cell(tab, 5, "trace") != "P08" {
		t.Error("trace order wrong")
	}
}

func TestFigure4Shape(t *testing.T) {
	tab, err := Figure4(tiny)
	if err != nil {
		t.Fatal(err)
	}
	// 6 all-rep rows + 6 all-matrix rows.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
	// All-Rep load rises towards the right-most reducer; the last reducer
	// holds the maximum.
	var allrep []float64
	var matrix []float64
	for r := range tab.Rows {
		v := cellFloat(t, tab, r, "pairs_received")
		if cell(tab, r, "algorithm") == "all-rep" {
			allrep = append(allrep, v)
		} else {
			matrix = append(matrix, v)
		}
	}
	maxAt := 0
	for i, v := range allrep {
		if v > allrep[maxAt] {
			maxAt = i
		}
	}
	if maxAt != len(allrep)-1 {
		t.Errorf("all-rep maximum at reducer %d, want the right-most", maxAt)
	}
	spread := func(v []float64) float64 {
		min, max := v[0], v[0]
		for _, x := range v {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		if min == 0 {
			min = 1
		}
		return max / min
	}
	if spread(matrix) >= spread(allrep) {
		t.Errorf("all-matrix spread %.2f not tighter than all-rep %.2f", spread(matrix), spread(allrep))
	}
}

func TestFigure5aShape(t *testing.T) {
	cfg := tiny
	cfg.Scale = 0.002 // imbalance needs enough tuples per reducer to show
	tab, err := Figure5a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	// The largest step carries the signal; small steps are noisy.
	last := len(tab.Rows) - 1
	if cellFloat(t, tab, last, "imb_matrix") >= cellFloat(t, tab, last, "imb_allrep") {
		t.Errorf("all-matrix imbalance %s not below all-rep %s",
			cell(tab, last, "imb_matrix"), cell(tab, last, "imb_allrep"))
	}
	for r := range tab.Rows {
		if cellFloat(t, tab, r, "pairs_matrix") >= cellFloat(t, tab, r, "pairs_allrep") {
			t.Errorf("row %d: all-matrix pairs not below all-rep", r)
		}
	}
}

func TestFigure5bShape(t *testing.T) {
	cfg := tiny
	cfg.Scale = 0.0008
	tab, err := Figure5b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 sample steps", len(tab.Rows))
	}
	if cellFloat(t, tab, 0, "trains") > cellFloat(t, tab, 5, "trains") {
		t.Error("sample ladder not rising")
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := tiny
	cfg.Scale = 0.002 // needs enough R3 intervals to measure pruning
	tab, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// Pruned percentage rises as max length falls (monotone within noise:
	// compare the ends).
	first := cellFloat(t, tab, 0, "pct_R1_pruned")
	last := cellFloat(t, tab, len(tab.Rows)-1, "pct_R1_pruned")
	if last <= first {
		t.Errorf("pruned%% did not rise: maxlen=1000 -> %.1f%%, maxlen=200 -> %.1f%%", first, last)
	}
	if last < 30 {
		t.Errorf("short-R3 pruning only %.1f%%, expected a large fraction", last)
	}
}

func TestTable4Shape(t *testing.T) {
	tab, err := Table4(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "375 of 625") && strings.Contains(n, "consistent reducers: 375") {
			found = true
		}
	}
	if !found {
		t.Errorf("consistent-cell note missing or wrong: %v", tab.Notes)
	}
	for r := range tab.Rows {
		if cell(tab, r, "cycles") != "2" {
			t.Errorf("row %d: gen-matrix cycles = %s, want 2", r, cell(tab, r, "cycles"))
		}
	}
}

func TestAblationD1D2Shape(t *testing.T) {
	tab, err := AblationD1D2(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	full := cellFloat(t, tab, 0, "pairs")
	noD1 := cellFloat(t, tab, 1, "pairs")
	noD2 := cellFloat(t, tab, 2, "pairs")
	if !(full < noD1 && full < noD2) {
		t.Errorf("routing conditions not saving pairs: full=%v noD1=%v noD2=%v", full, noD1, noD2)
	}
	// Identical outputs across variants.
	out := cell(tab, 0, "output")
	if cell(tab, 1, "output") != out || cell(tab, 2, "output") != out {
		t.Error("ablation variants disagree on output size")
	}
}

func TestAblationPartitionsShape(t *testing.T) {
	tab, err := AblationPartitions(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// Fan-out rises with o.
	if cellFloat(t, tab, 0, "pairs") >= cellFloat(t, tab, len(tab.Rows)-1, "pairs") {
		t.Error("pairs did not rise with o")
	}
}

func TestAblationPruningShape(t *testing.T) {
	tab, err := AblationPruning(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	if cell(tab, 1, "cycles") != "3" || cell(tab, 0, "cycles") != "2" {
		t.Errorf("cycle counts = %s/%s, want 2/3", cell(tab, 0, "cycles"), cell(tab, 1, "cycles"))
	}
	if pct := cellFloat(t, tab, 1, "pct_R1_pruned"); pct > 20 {
		t.Errorf("adversarial workload pruned %.1f%%, expected little", pct)
	}
}

func TestAblationSkewShape(t *testing.T) {
	// Zipf clustering makes the hot partition's join quadratic; keep the
	// workload small and skip the oracle (correctness under equi-depth is
	// covered by core's TestEquiDepthCorrectness).
	cfg := tiny
	cfg.Scale = 0.0002
	cfg.Verify = false
	tab, err := AblationSkew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	uniform := cellFloat(t, tab, 0, "imbalance")
	equi := cellFloat(t, tab, 1, "imbalance")
	if equi >= uniform {
		t.Errorf("equi-depth imbalance %.2f not below uniform %.2f", equi, uniform)
	}
	if cell(tab, 0, "output") != cell(tab, 1, "output") {
		t.Error("partitioning strategy changed the output")
	}
}

func TestAblationRangeShuffleShape(t *testing.T) {
	tab, err := AblationRangeShuffle(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	for r := range tab.Rows {
		logical := cellFloat(t, tab, r, "pairs")
		phys := cellFloat(t, tab, r, "phys_pairs")
		if phys > logical {
			t.Errorf("row %d (%s): physical pairs %v exceed logical %v",
				r, cell(tab, r, "algorithm"), phys, logical)
		}
	}
	// The replicate-heavy baselines (rows 0 and 1) must coalesce
	// substantially.
	for r := 0; r < 2; r++ {
		logical := cellFloat(t, tab, r, "pairs")
		phys := cellFloat(t, tab, r, "phys_pairs")
		if phys*2 > logical {
			t.Errorf("row %d (%s): physical pairs %v not under half of logical %v",
				r, cell(tab, r, "algorithm"), phys, logical)
		}
	}
}

func TestAdvisorValidationShape(t *testing.T) {
	cfg := tiny
	cfg.Scale = 0.002
	cfg.Verify = false
	tab, err := AdvisorValidation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for r := range tab.Rows {
		ratio := cellFloat(t, tab, r, "ratio")
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: est/meas ratio %.2f outside [0.5, 2]", cell(tab, r, "algorithm"), ratio)
		}
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	b, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID   string              `json:"id"`
		Rows []map[string]string `json:"rows"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "x" || len(decoded.Rows) != 1 || decoded.Rows[0]["bb"] != "2" {
		t.Fatalf("JSON = %s", b)
	}
	maps := tab.RowMaps()
	if maps[0]["a"] != "1" {
		t.Fatalf("RowMaps = %v", maps)
	}
}

func TestRenderAndRegistry(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "hello")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if len(All()) != 15 {
		t.Fatalf("experiments = %d, want 15", len(All()))
	}
	if _, err := ByID("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("table9"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExecuteVerifyCatchesBadAlgorithm(t *testing.T) {
	// Deliberately broken "algorithms" (the oracle's rows, planted with a
	// fault) must each be caught by Verify.
	q := query.MustParse("R1 overlaps R2")
	r, err := workload.Generate(workload.Table1Spec("R1", 400, 1))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := workload.Generate(workload.Table1Spec("R2", 400, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scale: 1, Seed: 1, Verify: true}
	for _, alg := range []plantedAlgorithm{
		{"truncated", "output has", func(rows [][]int64) [][]int64 { return rows[1:] }},
		{"swapped", "oracle's is", func(rows [][]int64) [][]int64 {
			// A row whose swapped ids still sort between its neighbours,
			// so only the comparison with the oracle can catch it.
			for i := 1; i+1 < len(rows); i++ {
				row := []int64{rows[i][1], rows[i][0]}
				if slices.Compare(rows[i-1], row) < 0 && slices.Compare(row, rows[i+1]) < 0 && row[0] != row[1] {
					rows[i] = row
					return rows
				}
			}
			t.Fatal("no row whose ids can be swapped in place")
			return nil
		}},
		{"duplicated", "duplicate", func(rows [][]int64) [][]int64 {
			return slices.Insert(rows, 1, rows[1])
		}},
	} {
		_, err := execute(cfg, alg, q, []*relation.Relation{r, r2}, core.Options{Partitions: 4})
		if err == nil || !strings.Contains(err.Error(), alg.want) {
			t.Errorf("%s: verify returned %v, want an error naming %q", alg.name, err, alg.want)
		}
	}
}

// plantedAlgorithm returns the oracle's rows with a fault planted in them,
// as a slab and row headers that agree.
type plantedAlgorithm struct {
	name, want string
	plant      func(rows [][]int64) [][]int64
}

func (a plantedAlgorithm) Name() string { return a.name }

func (a plantedAlgorithm) Run(ctx *core.Context) (*core.Result, error) {
	res, err := core.Reference{}.Run(ctx)
	if err != nil {
		return nil, err
	}
	if len(res.Tuples) < 2 {
		return nil, fmt.Errorf("the oracle has %d rows, too few to plant a fault in", len(res.Tuples))
	}
	rows := make([][]int64, len(res.Tuples))
	for i, tup := range res.Tuples {
		rows[i] = slices.Clone(tup)
	}
	rows = a.plant(rows)
	res.IDs, res.Tuples = nil, make([]core.OutputTuple, len(rows))
	for _, row := range rows {
		res.IDs = append(res.IDs, row...)
	}
	for i, row := range rows {
		res.Tuples[i] = res.IDs[i*len(row) : (i+1)*len(row)]
	}
	return res, nil
}
