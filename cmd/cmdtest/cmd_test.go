// Package cmdtest builds the CLI binaries and exercises them end to end —
// the integration layer the per-package unit tests cannot cover.
package cmdtest

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// binaries are built once per test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ijoin-bins")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"ijoin", "genintervals", "packettrace", "experiments", "ijoind", "ijlint"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "intervaljoin/cmd/"+tool)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			panic("build " + tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/cmdtest -> repo root
}

func run(t *testing.T, tool string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func mustRun(t *testing.T, tool string, args ...string) string {
	t.Helper()
	out, errOut, err := run(t, tool, args...)
	if err != nil {
		t.Fatalf("%s %v: %v\nstderr: %s", tool, args, err, errOut)
	}
	return out
}

func TestGenIntervalsAndIjoinPipeline(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.txt")
	b := filepath.Join(dir, "b.txt")
	mustRun(t, "genintervals", "-n", "200", "-tmax", "1000", "-imax", "50", "-seed", "1", "-o", a)
	mustRun(t, "genintervals", "-n", "200", "-tmax", "1000", "-imax", "50", "-seed", "2", "-o", b)

	out := mustRun(t, "ijoin",
		"-query", "R1 overlaps R2",
		"-rel", "R1="+a, "-rel", "R2="+b,
		"-partitions", "8")
	lines := nonEmptyLines(out)
	if len(lines) == 0 {
		t.Fatal("join produced no output")
	}
	for _, l := range lines {
		if !strings.Contains(l, ",") {
			t.Fatalf("malformed output line %q", l)
		}
	}

	// The same join through an explicit baseline algorithm must agree.
	out2 := mustRun(t, "ijoin",
		"-query", "R1 overlaps R2",
		"-rel", "R1="+a, "-rel", "R2="+b,
		"-algorithm", "all-rep", "-partitions", "8")
	if len(nonEmptyLines(out2)) != len(lines) {
		t.Fatalf("two-way found %d pairs, all-rep %d", len(lines), len(nonEmptyLines(out2)))
	}
}

// TestIjoinFSTCAllSequenceHybrid runs the hybrid shape whose every relation
// is in a sequence condition — FSTC has no colocation step there, so its
// sequence stage writes the final output — and requires FSTC's sorted rows
// to equal the oracle's.
func TestIjoinFSTCAllSequenceHybrid(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-query", "R1 before R2 and R1 overlaps R3 and R3 before R2"}
	for i, name := range []string{"R1", "R2", "R3"} {
		f := filepath.Join(dir, name+".txt")
		mustRun(t, "genintervals", "-n", "60", "-tmax", "200", "-imax", "30", "-seed", strconv.Itoa(i+1), "-o", f)
		args = append(args, "-rel", name+"="+f)
	}
	sorted := func(alg string) []string {
		lines := nonEmptyLines(mustRun(t, "ijoin", append(args, "-algorithm", alg)...))
		slices.Sort(lines)
		return lines
	}
	want, got := sorted("reference"), sorted("fstc")
	if len(want) == 0 {
		t.Fatal("oracle produced no rows; the case checks nothing")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fstc wrote %d rows, reference %d, or the rows differ", len(got), len(want))
	}
}

// TestIjoinPlannerBroadcastsSmallRelation: with no -algorithm, a hybrid
// query whose R3 is tiny runs with R3 joined whole in every reducer instead
// of on a grid dimension of its own. The rows are the named
// All-Seq-Matrix's, and only the planner's metrics.json names R3 in its
// plan, with both sides of the rule that took it out.
func TestIjoinPlannerBroadcastsSmallRelation(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-query", "R1 overlaps R2 and R2 before R3"}
	for i, n := range []string{"300", "300", "5"} {
		name := "R" + strconv.Itoa(i+1)
		f := filepath.Join(dir, name+".txt")
		mustRun(t, "genintervals", "-n", n, "-tmax", "3000", "-imax", "40", "-seed", strconv.Itoa(i+1), "-o", f)
		args = append(args, "-rel", name+"="+f)
	}
	type plan struct {
		Broadcast []struct {
			Relation    string `json:"relation"`
			ShipPairs   int64  `json:"ship_pairs"`
			OtherTuples int64  `json:"other_tuples"`
		} `json:"broadcast"`
	}
	var plans [2]*plan
	var rows [2][]string
	for i, extra := range [][]string{nil, {"-algorithm", "all-seq-matrix"}} {
		metrics := filepath.Join(dir, "metrics"+strconv.Itoa(i)+".json")
		rows[i] = nonEmptyLines(mustRun(t, "ijoin", append(append(slices.Clip(args), "-metrics", metrics), extra...)...))
		raw, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Plan *plan `json:"plan"`
		}
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatal(err)
		}
		plans[i] = report.Plan
	}
	if len(rows[0]) == 0 || !slices.Equal(rows[0], rows[1]) {
		t.Fatalf("the planner printed %d rows, all-seq-matrix %d, or the rows differ", len(rows[0]), len(rows[1]))
	}
	if p := plans[0]; p == nil || len(p.Broadcast) != 1 || p.Broadcast[0].Relation != "R3" ||
		p.Broadcast[0].ShipPairs > p.Broadcast[0].OtherTuples {
		t.Errorf("the planner's metrics.json plan = %+v, want R3 broadcast within its rule", p)
	}
	if plans[1] != nil {
		t.Errorf("-algorithm all-seq-matrix reports a plan: %+v", plans[1])
	}
}

// TestIjoinPlannerReach: with no -algorithm, a 3-way overlaps chain of short
// intervals runs in one cycle — the planner's RCCIS skips the marking — and
// metrics.json's plan block has a reach entry within its rule. With long
// intervals the same chain is marked and joined in two cycles and has none.
// -algorithm rccis takes two cycles either way, and prints the same rows.
func TestIjoinPlannerReach(t *testing.T) {
	dir := t.TempDir()
	type report struct {
		Serialized struct {
			Cycles int `json:"cycles"`
		} `json:"serialized"`
		Plan *struct {
			Reach []struct {
				Vertices int   `json:"vertices"`
				Longest  int64 `json:"longest"`
				Reach    int64 `json:"reach"`
				Span     int64 `json:"span"`
				Width    int64 `json:"width"`
			} `json:"reach"`
		} `json:"plan"`
	}
	for _, tc := range []struct {
		lengths string
		imax    string
		reach   bool
	}{
		{"short", "40", true},
		{"long", "400", false},
	} {
		args := []string{"-query", "R1 overlaps R2 and R2 overlaps R3"}
		for i := 1; i <= 3; i++ {
			name := "R" + strconv.Itoa(i)
			f := filepath.Join(dir, tc.lengths+"-"+name+".txt")
			mustRun(t, "genintervals", "-n", "150", "-tmax", "8000", "-imax", tc.imax, "-seed", strconv.Itoa(i), "-o", f)
			args = append(args, "-rel", name+"="+f)
		}
		var reports [2]report
		var rows [2][]string
		for i, extra := range [][]string{nil, {"-algorithm", "rccis"}} {
			metrics := filepath.Join(dir, tc.lengths+"-metrics"+strconv.Itoa(i)+".json")
			rows[i] = nonEmptyLines(mustRun(t, "ijoin", append(append(slices.Clip(args), "-metrics", metrics), extra...)...))
			raw, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &reports[i]); err != nil {
				t.Fatal(err)
			}
		}
		if len(rows[0]) == 0 || !slices.Equal(rows[0], rows[1]) {
			t.Fatalf("%s: the planner printed %d rows, rccis %d, or the rows differ", tc.lengths, len(rows[0]), len(rows[1]))
		}
		reachOf := func(r report) int {
			if r.Plan == nil {
				return 0
			}
			return len(r.Plan.Reach)
		}
		planner, named := reports[0], reports[1]
		switch {
		case tc.reach && (planner.Serialized.Cycles != 1 || reachOf(planner) != 1):
			t.Errorf("%s: the planner ran %d cycles with plan %+v; want one cycle and a reach entry", tc.lengths, planner.Serialized.Cycles, planner.Plan)
		case tc.reach && planner.Plan.Reach[0].Span > planner.Plan.Reach[0].Width:
			t.Errorf("%s: reach entry %+v breaks its rule", tc.lengths, planner.Plan.Reach[0])
		case !tc.reach && (planner.Serialized.Cycles != 2 || reachOf(planner) != 0):
			t.Errorf("%s: the planner ran %d cycles with plan %+v; want the marking and no reach entry", tc.lengths, planner.Serialized.Cycles, planner.Plan)
		}
		if named.Serialized.Cycles != 2 || reachOf(named) != 0 {
			t.Errorf("%s: -algorithm rccis ran %d cycles with plan %+v; want two and no reach entry", tc.lengths, named.Serialized.Cycles, named.Plan)
		}
	}
}

// TestIjoinEmitTuples pins what ijoin prints for both -emit forms: a row's
// ids in decimal, comma-separated, one row a line in the result's order,
// and the same rows with their intervals.
func TestIjoinEmitTuples(t *testing.T) {
	dir := t.TempDir()
	// R1's tuple i overlaps exactly R2's tuple 11-i, so the rows' ids run
	// to two digits in both columns.
	var r1, r2, want strings.Builder
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&r1, "%d,%d\n", i*100, i*100+10)
		fmt.Fprintf(&r2, "%d,%d\n", (11-i)*100+5, (11-i)*100+20)
		fmt.Fprintf(&want, "%d,%d\n", i, 11-i)
	}
	c := filepath.Join(dir, "c.txt")
	d := filepath.Join(dir, "d.txt")
	os.WriteFile(c, []byte(r1.String()), 0o644)
	os.WriteFile(d, []byte(r2.String()), 0o644)
	if out := mustRun(t, "ijoin", "-query", "R1 overlaps R2", "-rel", "R1="+c, "-rel", "R2="+d); out != want.String() {
		t.Fatalf("-emit ids printed %q, want %q", out, want.String())
	}

	a := filepath.Join(dir, "a.txt")
	b := filepath.Join(dir, "b.txt")
	os.WriteFile(a, []byte("0,10\n"), 0o644)
	os.WriteFile(b, []byte("5,20\n100,110\n"), 0o644)
	out := mustRun(t, "ijoin",
		"-query", "R1 overlaps R2",
		"-rel", "R1="+a, "-rel", "R2="+b,
		"-emit", "tuples")
	lines := nonEmptyLines(out)
	if len(lines) != 1 || !strings.Contains(lines[0], "R1[0]=[0,10]") || !strings.Contains(lines[0], "R2[0]=[5,20]") {
		t.Fatalf("tuples output = %q", out)
	}
	if _, _, err := run(t, "ijoin", "-query", "R1 overlaps R2",
		"-rel", "R1="+a, "-rel", "R2="+b, "-emit", "nonsense"); err == nil {
		t.Error("unknown -emit accepted")
	}
}

func TestIjoinAdvise(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.txt")
	mustRun(t, "genintervals", "-n", "100", "-tmax", "1000", "-imax", "20", "-o", a)
	out := mustRun(t, "ijoin",
		"-query", "R1 overlaps R2 and R2 overlaps R3",
		"-rel", "R1="+a, "-rel", "R2="+a, "-rel", "R3="+a,
		"-advise")
	if !strings.Contains(out, "rccis") || !strings.Contains(out, "est_pairs") {
		t.Fatalf("advice output missing content:\n%s", out)
	}
}

func TestIjoinProvablyEmptyShortCircuits(t *testing.T) {
	_, errOut, err := run(t, "ijoin", "-query", "A before B and B before A")
	if err != nil {
		t.Fatalf("provably empty query should exit 0: %v", err)
	}
	if !strings.Contains(errOut, "provably empty") {
		t.Fatalf("stderr = %q", errOut)
	}
}

func TestIjoinErrors(t *testing.T) {
	if _, _, err := run(t, "ijoin"); err == nil {
		t.Error("missing -query accepted")
	}
	if _, _, err := run(t, "ijoin", "-query", "A sideways B"); err == nil {
		t.Error("bad predicate accepted")
	}
	if _, _, err := run(t, "ijoin", "-query", "A overlaps B", "-rel", "A=/nonexistent"); err == nil {
		t.Error("missing relation binding accepted")
	}
	out := mustRun(t, "ijoin", "-list-algorithms")
	if !strings.Contains(out, "rccis") || !strings.Contains(out, "gen-matrix") {
		t.Fatalf("algorithm list incomplete:\n%s", out)
	}
}

// TestIjoinOutputWriteFailure: a result that cannot be written to -o is an
// error that names the file and a non-zero exit, not a truncated file and
// exit 0. /dev/full accepts the open and fails every write.
func TestIjoinOutputWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.txt")
	b := filepath.Join(dir, "b.txt")
	mustRun(t, "genintervals", "-n", "200", "-tmax", "1000", "-imax", "50", "-seed", "1", "-o", a)
	mustRun(t, "genintervals", "-n", "200", "-tmax", "1000", "-imax", "50", "-seed", "2", "-o", b)
	_, errOut, err := run(t, "ijoin", "-query", "R1 overlaps R2", "-rel", "R1="+a, "-rel", "R2="+b, "-o", "/dev/full")
	if err == nil {
		t.Fatal("ijoin -o /dev/full exited 0")
	}
	if !strings.Contains(errOut, "/dev/full") {
		t.Fatalf("stderr does not name the output file: %q", errOut)
	}
}

// TestGeneratorOutputWriteFailure: the same contract for the two generators,
// whose output is another run's input.
func TestGeneratorOutputWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, args := range [][]string{
		{"genintervals", "-n", "5000", "-o", "/dev/full"},
		{"packettrace", "-profile", "P04", "-scale", "0.005", "-o", "/dev/full"},
	} {
		_, errOut, err := run(t, args[0], args[1:]...)
		if err == nil {
			t.Errorf("%s -o /dev/full exited 0", args[0])
		}
		if !strings.Contains(errOut, "/dev/full") {
			t.Errorf("%s: stderr does not name the output file: %q", args[0], errOut)
		}
	}
}

func TestPackettraceTrains(t *testing.T) {
	out := mustRun(t, "packettrace", "-profile", "P04", "-scale", "0.005", "-emit", "trains")
	lines := nonEmptyLines(out)
	if len(lines) < 5 {
		t.Fatalf("only %d trains", len(lines))
	}
	for _, l := range lines[:5] {
		if !strings.Contains(l, ",") {
			t.Fatalf("malformed train %q", l)
		}
	}
	out2 := mustRun(t, "packettrace", "-profile", "P04", "-scale", "0.005", "-emit", "packets")
	if len(nonEmptyLines(out2)) <= len(lines) {
		t.Fatal("packets output should exceed trains output")
	}
	if _, _, err := run(t, "packettrace", "-profile", "P99"); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, _, err := run(t, "packettrace", "-emit", "nonsense"); err == nil {
		t.Error("unknown -emit accepted")
	}
}

func TestExperimentsListAndJSON(t *testing.T) {
	out := mustRun(t, "experiments", "-exp", "list")
	for _, id := range []string{"table1", "table2", "figure4", "figure5a", "figure5b", "table3", "table4"} {
		if !strings.Contains(out, id) {
			t.Fatalf("experiment %s missing from list:\n%s", id, out)
		}
	}
	jsonOut := mustRun(t, "experiments", "-exp", "figure4", "-scale", "0.0005", "-json")
	if !strings.Contains(jsonOut, `"id": "figure4"`) || !strings.Contains(jsonOut, `"rows"`) {
		t.Fatalf("JSON output malformed:\n%s", jsonOut)
	}
	if _, _, err := run(t, "experiments", "-exp", "table99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestScriptsReferenceExistingPaths scans the gate scripts and the CI
// workflow for ./cmd/<name> and scripts/<name> and fails on a reference to
// a command or script that is no longer in the tree.
func TestScriptsReferenceExistingPaths(t *testing.T) {
	root := repoRoot()
	files, err := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no scripts found under %s (err=%v)", root, err)
	}
	files = append(files, filepath.Join(root, ".github", "workflows", "ci.yml"))
	ref := regexp.MustCompile(`\./cmd/\w+|\bscripts/[\w.-]*\w`)
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllString(string(text), -1) {
			if _, err := os.Stat(filepath.Join(root, m)); err != nil {
				t.Errorf("%s refers to %s, which does not exist", filepath.Base(f), m)
			}
		}
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}
