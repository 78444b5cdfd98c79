package lint

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestEmitterEscape(t *testing.T) {
	runFixture(t, "emitterescape", "intervaljoin/lintfixture/emitter")
}

func TestPoolDiscipline(t *testing.T) {
	runFixture(t, "pooldiscipline", "intervaljoin/lintfixture/pool")
}

func TestShardLock(t *testing.T) {
	runFixture(t, "shardlock", "intervaljoin/lintfixture/shard")
}

func TestHotPathBan(t *testing.T) {
	runFixture(t, "hotpathban", "intervaljoin/internal/core/lintfixture")
}

func TestTimeNowLoop(t *testing.T) {
	runFixture(t, "timenowloop", "intervaljoin/internal/mr/lintfixture")
}

func TestColKernel(t *testing.T) {
	// Distinct from hotpathban's fixture path: the loader caches packages
	// by import path, so sharing it would hand this test the wrong fixture.
	runFixture(t, "colkernel", "intervaljoin/internal/core/colfixture")
}

// TestColKernelScope reloads the kernel fixture under a neutral import
// path: outside internal/core the kernel* naming convention means nothing,
// so the analyzer must stay silent.
func TestColKernelScope(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "colkernel"), "intervaljoin/lintfixture/notcore")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{ColKernel})
	for _, d := range diags {
		t.Errorf("diagnostic outside the core scope: %s", d)
	}
}

// TestTimeNowLoopScope reloads the timing fixture under a neutral import
// path: outside the hot-path packages per-pair clock reads are fine, so
// the analyzer must stay silent.
func TestTimeNowLoopScope(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "timenowloop"), "intervaljoin/lintfixture/nothot")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{TimeNowLoop})
	for _, d := range diags {
		t.Errorf("diagnostic outside the hot-path scope: %s", d)
	}
}

// TestHotPathBanScope reloads the same fixture under a neutral import path:
// outside internal/core and internal/mr the banned calls are fine, so the
// analyzer must stay silent.
func TestHotPathBanScope(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "hotpathban"), "intervaljoin/lintfixture/nothot")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{HotPathBan})
	for _, d := range diags {
		t.Errorf("diagnostic outside the hot-path scope: %s", d)
	}
}

// TestHotPathBanTextIsCoreOnly reloads the fixture under internal/mr: the
// general bans still apply there, the decimal-text bans do not — the spill
// records' keys are strconv's.
func TestHotPathBanTextIsCoreOnly(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "hotpathban"), "intervaljoin/internal/mr/banfixture")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{HotPathBan})
	if len(diags) == 0 {
		t.Error("no diagnostic under internal/mr: the general bans must still apply")
	}
	for _, d := range diags {
		if strings.Contains(d.String(), "strconv.") {
			t.Errorf("decimal-text ban applied outside internal/core: %s", d)
		}
	}
}

func TestIgnoreDirectives(t *testing.T) {
	cases := []struct {
		text     string
		analyzer string
		want     bool
	}{
		{"//lint:ignore hotpathban cold path", "hotpathban", true},
		{"//lint:ignore hotpathban cold path", "shardlock", false},
		{"//lint:ignore hotpathban,shardlock startup only", "shardlock", true},
		{"//lint:ignore all bootstrap code", "pooldiscipline", true},
		{"//lint:ignore hotpathban", "hotpathban", false}, // reason is mandatory
		{"// plain comment", "hotpathban", false},
	}
	for _, c := range cases {
		d, ok := parseIgnore(c.text)
		if !ok {
			if c.want {
				t.Errorf("parseIgnore(%q): not recognised as a directive", c.text)
			}
			continue
		}
		if got := d.matches(c.analyzer); got != c.want {
			t.Errorf("%q matches(%s) = %v, want %v", c.text, c.analyzer, got, c.want)
		}
	}
}

// TestLockOrder appends the fixture's lock classes to the canonical
// order (restoring it afterwards) so the fixture exercises violations,
// cycles, self-deadlocks, and the unlisted-class ratchet without
// touching the real module's order.
func TestLockOrder(t *testing.T) {
	saved := CanonicalLockOrder
	CanonicalLockOrder = append(append([]string(nil), saved...),
		"lintfixture/lockorder.acct.mu",
		"lintfixture/lockorder.ledger.mu",
		"lintfixture/lockorder.alpha.mu",
		"lintfixture/lockorder.beta.mu",
		"lintfixture/lockorder.gamma.mu",
		"lintfixture/lockorder.delta.mu",
		"lintfixture/lockorder.sigma.mu",
	)
	defer func() { CanonicalLockOrder = saved }()
	runFixture(t, "lockorder", "intervaljoin/lintfixture/lockorder")
}

func TestGoroutineLeak(t *testing.T) {
	runFixture(t, "goroutineleak", "intervaljoin/lintfixture/goroutineleak")
}

func TestErrorFlow(t *testing.T) {
	// The path sits inside internal/core so the scoped analyzer fires.
	runFixture(t, "errorflow", "intervaljoin/internal/core/errfixture")
}

// TestErrorFlowScope reloads the fixture under a neutral import path:
// outside the engine packages the discipline is not enforced.
func TestErrorFlowScope(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "errorflow"), "intervaljoin/lintfixture/noterr")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{ErrorFlow})
	for _, d := range diags {
		t.Errorf("diagnostic outside the errorflow scope: %s", d)
	}
}

// TestUnusedIgnore runs the full analyzer set through RunModule over a
// fixture whose directives cover every unused-ignore shape: one live
// suppression (silent), one stale, one with no analyzer list, one with no
// reason, one naming an unknown analyzer.
func TestUnusedIgnore(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "unusedignore"), "intervaljoin/internal/core/unusedfixture")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, _ := RunModule([]*Package{pkg}, All())
	wantSubstrings := []string{
		"has no analyzer list",
		"has no reason",
		`names unknown analyzer "nosuch"`,
		"//lint:ignore hotpathban suppresses no finding",
	}
	for _, d := range diags {
		if d.Analyzer != "unusedignore" {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		matched := false
		for i, sub := range wantSubstrings {
			if sub != "" && strings.Contains(d.Message, sub) {
				wantSubstrings[i] = ""
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected unusedignore diagnostic: %s", d)
		}
	}
	for _, sub := range wantSubstrings {
		if sub != "" {
			t.Errorf("no unusedignore diagnostic contained %q", sub)
		}
	}
}

// TestRunAnalyzersSkipsUnusedIgnore pins the single-package entry point's
// contract: fixtures and editors run analyzers over packages whose ignores
// legitimately suppress nothing there, so only RunModule judges them.
func TestRunAnalyzersSkipsUnusedIgnore(t *testing.T) {
	pkg, err := fixtureLoader(t).LoadDir(filepath.Join("testdata", "unusedignore"), "intervaljoin/lintfixture/notjudged")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, d := range RunAnalyzers(pkg, All()) {
		t.Errorf("RunAnalyzers reported: %s", d)
	}
}

// TestModuleIsClean runs every analyzer over every module package — the
// in-process equivalent of `go run ./cmd/ijlint ./...` exiting 0, which
// keeps the tree's burned-down state from regressing even when check.sh
// is bypassed.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis is not short")
	}
	l := fixtureLoader(t)
	paths, err := l.Expand(nil)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, timings := RunModule(pkgs, All())
	for _, d := range diags {
		t.Errorf("finding on the shipped tree: %s", d)
	}
	// The informal perf gate from check.sh, enforced loosely here: no single
	// analyzer may eat the whole lint budget.
	for _, tm := range timings {
		t.Logf("%-16s %v", tm.Analyzer, tm.Wall)
		if tm.Wall > 10*time.Second {
			t.Errorf("analyzer %s took %v, over the 10s budget", tm.Analyzer, tm.Wall)
		}
	}
}
