package cmdtest

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchsummaryCompareGate pins the verdicts of the judge behind the
// benchmark gates: `benchsummary -compare -threshold N -fail` must exit 0
// when every gated delta is within the threshold, exit non-zero when one
// is beyond it — only under -fail — and report (not crash on) benchmarks
// present in only one baseline. The printed tables are compared against
// golden files.
func TestBenchsummaryCompareGate(t *testing.T) {
	dir := filepath.Join("testdata", "benchsummary")
	cases := []struct {
		name     string
		baseline string
		fail     bool
		wantExit int
	}{
		{"within threshold passes", "within", true, 0},
		{"beyond threshold fails", "beyond", true, 1},
		{"beyond threshold without -fail only reports", "beyond", false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-compare", "-threshold", "10"}
			if tc.fail {
				args = append(args, "-fail")
			}
			args = append(args, filepath.Join(dir, "old.json"), filepath.Join(dir, tc.baseline+".json"))
			out, errOut, err := run(t, "benchsummary", args...)
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if exit != tc.wantExit {
				t.Errorf("exit code %d, want %d\nstderr: %s", exit, tc.wantExit, errOut)
			}
			want, err := os.ReadFile(filepath.Join(dir, tc.baseline+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("table differs from %s.golden\ngot:\n%s\nwant:\n%s", tc.baseline, out, want)
			}
		})
	}
}
