package mr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"intervaljoin/internal/dfs"
)

// faultStore wraps a Store and fails selected operations, for exercising
// the engine's storage error paths.
type faultStore struct {
	dfs.Store
	mu          sync.Mutex
	failCreate  string // prefix of the file names whose Create fails
	failOpen    string // file name whose Open fails
	failWriteAt int    // fail the Nth Write on any writer (0 = off)
	writes      int
}

var errInjected = errors.New("injected storage failure")

func (f *faultStore) Create(name string) (dfs.Writer, error) {
	if f.failCreate != "" && strings.HasPrefix(name, f.failCreate) {
		return nil, fmt.Errorf("create %s: %w", name, errInjected)
	}
	w, err := f.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultWriter{Writer: w, store: f}, nil
}

func (f *faultStore) Open(name string) (dfs.Iterator, error) {
	if f.failOpen != "" && name == f.failOpen {
		return nil, fmt.Errorf("open %s: %w", name, errInjected)
	}
	return f.Store.Open(name)
}

type faultWriter struct {
	dfs.Writer
	store *faultStore
}

func (w *faultWriter) Write(record string) error {
	w.store.mu.Lock()
	w.store.writes++
	n := w.store.writes
	limit := w.store.failWriteAt
	w.store.mu.Unlock()
	if limit > 0 && n >= limit {
		return fmt.Errorf("write %d: %w", n, errInjected)
	}
	return w.Writer.Write(record)
}

func identityJob(output string) Job {
	return Job{
		Name:   "identity",
		Inputs: []Input{{File: "in"}},
		Map: func(tag int, record string, emit Emitter) error {
			v, _ := strconv.ParseInt(record, 10, 64)
			emit.Emit(v%4, record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			for _, v := range values {
				if err := write(v); err != nil {
					return err
				}
			}
			return nil
		},
		Output: output,
	}
}

func seedInput(t *testing.T, s dfs.Store, n int) {
	t.Helper()
	recs := make([]string, n)
	for i := range recs {
		recs[i] = strconv.Itoa(i)
	}
	if err := dfs.WriteAll(s, "in", recs); err != nil {
		t.Fatal(err)
	}
}

func TestEngineSurfacesOutputCreateFailure(t *testing.T) {
	fs := &faultStore{Store: dfs.NewMem(), failCreate: "out"}
	seedInput(t, fs, 10)
	e := NewEngine(Config{Store: fs, Workers: 2})
	if _, err := e.Run(identityJob("out")); err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected create failure", err)
	}
}

func TestEngineSurfacesInputOpenFailure(t *testing.T) {
	fs := &faultStore{Store: dfs.NewMem(), failOpen: "in"}
	seedInput(t, fs, 10)
	e := NewEngine(Config{Store: fs, Workers: 2})
	if _, err := e.Run(identityJob("out")); err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected open failure", err)
	}
}

func TestEngineSurfacesOutputWriteFailure(t *testing.T) {
	fs := &faultStore{Store: dfs.NewMem()}
	seedInput(t, fs, 20)
	fs.failWriteAt = fs.writes + 5 // arm after the input is staged
	e := NewEngine(Config{Store: fs, Workers: 2})
	if _, err := e.Run(identityJob("out")); err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected write failure", err)
	}
}

func TestEngineSurfacesSpillFailure(t *testing.T) {
	// Spill runs live under ".spill/"; fail their creation.
	fs := &faultStore{Store: dfs.NewMem(), failCreate: ".spill/"}
	seedInput(t, fs, 2000)
	e := NewEngine(Config{Store: fs, Workers: 1, SpillPairThreshold: 16})
	if _, err := e.Run(identityJob("out")); err == nil || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected spill failure", err)
	}
}
