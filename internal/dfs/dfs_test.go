package dfs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

// stores returns every backend, so each test runs against all of them.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{"mem": NewMem()}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			recs := []string{"alpha", "", "gamma|1,2", "with spaces and | pipes"}
			if err := WriteAll(s, "r/one", recs); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(s, "r/one")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(recs) {
				t.Fatalf("got %d records, want %d", len(got), len(recs))
			}
			for i := range recs {
				if got[i] != recs[i] {
					t.Fatalf("record %d = %q, want %q", i, got[i], recs[i])
				}
			}
		})
	}
}

func TestEmptyRecordPreserved(t *testing.T) {
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			if err := WriteAll(s, "f", []string{"", "", ""}); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(s, "f")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 3 {
				t.Fatalf("got %d records, want 3", len(got))
			}
		})
	}
}

// TestEveryByteRoundTrips: a record is arbitrary bytes. Every byte value on
// its own, the empty record, records of newlines and zeros, one holding all
// 256 values and one of 75 KiB come back as they were written, in order, and
// Stat counts their bytes.
func TestEveryByteRoundTrips(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	recs := []string{"", "\n", "\x00", "\n\n", "a\nb", "\x00\x00\x00", "", string(all), strings.Repeat(string(all), 300)}
	for _, b := range all {
		recs = append(recs, string([]byte{b}), string([]byte{'x', b, 'y'}))
	}
	var total int64
	for _, r := range recs {
		total += int64(len(r))
	}
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			if err := WriteAll(s, "bytes", recs); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(s, "bytes")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, recs) {
				t.Fatalf("read back %d records that differ from the %d written", len(got), len(recs))
			}
			if n, bytes, err := s.Stat("bytes"); err != nil || n != int64(len(recs)) || bytes != total {
				t.Errorf("Stat = %d records, %d bytes, %v; want %d, %d", n, bytes, err, len(recs), total)
			}
		})
	}
}

func TestFileInvisibleUntilClose(t *testing.T) {
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			w, err := s.Create("pending")
			if err != nil {
				t.Fatal(err)
			}
			w.Write("x")
			if s.Exists("pending") {
				t.Error("file visible before Close")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !s.Exists("pending") {
				t.Error("file missing after Close")
			}
		})
	}
}

func TestCreateTruncates(t *testing.T) {
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			WriteAll(s, "f", []string{"old1", "old2"})
			WriteAll(s, "f", []string{"new"})
			got, err := ReadAll(s, "f")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != "new" {
				t.Fatalf("got %v, want [new]", got)
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			if _, err := s.Open("nope"); err == nil {
				t.Error("Open of missing file succeeded")
			}
			if err := s.Remove("nope"); err == nil {
				t.Error("Remove of missing file succeeded")
			}
			if s.Exists("nope") {
				t.Error("missing file Exists")
			}
		})
	}
}

func TestListAndRemove(t *testing.T) {
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			for _, name := range []string{"job1/part-0", "job1/part-1", "job2/part-0"} {
				if err := WriteAll(s, name, []string{"x"}); err != nil {
					t.Fatal(err)
				}
			}
			names, err := s.List("job1/")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 || names[0] != "job1/part-0" || names[1] != "job1/part-1" {
				t.Fatalf("List(job1/) = %v", names)
			}
			all, err := s.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 3 {
				t.Fatalf("List(\"\") = %v", all)
			}
			if err := s.Remove("job1/part-0"); err != nil {
				t.Fatal(err)
			}
			if s.Exists("job1/part-0") {
				t.Error("removed file still exists")
			}
		})
	}
}

func TestStat(t *testing.T) {
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			WriteAll(s, "f", []string{"ab", "cde", ""})
			recs, bytes, err := s.Stat("f")
			if err != nil {
				t.Fatal(err)
			}
			if recs != 3 || bytes != 5 {
				t.Fatalf("Stat = %d recs, %d bytes; want 3, 5", recs, bytes)
			}
			if _, _, err := s.Stat("missing"); err == nil {
				t.Error("Stat of missing file succeeded")
			}
		})
	}
}

func TestConcurrentDistinctFiles(t *testing.T) {
	for backend, s := range stores(t) {
		t.Run(backend, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					name := fmt.Sprintf("part-%d", i)
					recs := make([]string, 100)
					for j := range recs {
						recs[j] = fmt.Sprintf("%d:%d", i, j)
					}
					if err := WriteAll(s, name, recs); err != nil {
						errs <- err
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				got, err := ReadAll(s, fmt.Sprintf("part-%d", i))
				if err != nil || len(got) != 100 {
					t.Fatalf("part-%d: %d records, err %v", i, len(got), err)
				}
			}
		})
	}
}
