// Package dfs provides the small distributed-file-system abstraction the
// MapReduce engine keeps spill runs on, and the files a caller writes itself
// for a job to read. It plays the role HDFS plays for Hadoop in the paper:
// named files of records. A record is a string of arbitrary bytes — the
// engine's are fixed-width binary (core/codec.go) — so nothing here gives any
// byte a meaning. The one backend is in memory and keeps the strings. A join
// writes nothing here: its cycle boundaries stream, and relations are read by
// package relation and mapped where they lie.
package dfs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Writer appends records to a file. Writers are not safe for concurrent use;
// the MR engine serialises writes per output file.
type Writer interface {
	// Write appends one record: any bytes, the empty record included. What
	// Next returns is what was written, byte for byte.
	Write(record string) error
	// Close flushes and publishes the file. A file is not readable until
	// its writer is closed.
	Close() error
}

// Iterator streams the records of a file in order.
type Iterator interface {
	// Next returns the next record. ok is false at end of file.
	Next() (record string, ok bool, err error)
	// Close releases resources; safe to call multiple times.
	Close() error
}

// Store is a flat namespace of record files.
type Store interface {
	// Create opens a new file for writing, truncating any previous file
	// of the same name.
	Create(name string) (Writer, error)
	// Open returns an iterator over the file's records.
	Open(name string) (Iterator, error)
	// List returns the names with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Remove deletes a file. Removing a missing file is an error.
	Remove(name string) error
	// Exists reports whether the file exists.
	Exists(name string) bool
	// Stat returns the number of records and total record bytes of a
	// file.
	Stat(name string) (records, bytes int64, err error)
}

// ReadAll drains a file into a slice. Intended for tests and small outputs.
func ReadAll(s Store, name string) ([]string, error) {
	it, err := s.Open(name)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []string
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, rec)
	}
}

// WriteAll creates a file holding exactly the given records.
func WriteAll(s Store, name string, records []string) error {
	w, err := s.Create(name)
	if err != nil {
		return err
	}
	for _, r := range records {
		if err := w.Write(r); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// Mem is an in-memory Store. The zero value is not usable; construct with
// NewMem. Mem is safe for concurrent use.
type Mem struct {
	mu    sync.RWMutex
	files map[string][]string
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{files: make(map[string][]string)} }

type memWriter struct {
	store  *Mem
	name   string
	buf    []string
	closed bool
}

func (w *memWriter) Write(record string) error {
	if w.closed {
		return fmt.Errorf("dfs: write to closed file %s", w.name)
	}
	w.buf = append(w.buf, record)
	return nil
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.store.mu.Lock()
	w.store.files[w.name] = w.buf
	w.store.mu.Unlock()
	return nil
}

// Create implements Store.
func (m *Mem) Create(name string) (Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("dfs: empty file name")
	}
	return &memWriter{store: m, name: name}, nil
}

type memIterator struct {
	recs []string
	pos  int
}

func (it *memIterator) Next() (string, bool, error) {
	if it.pos >= len(it.recs) {
		return "", false, nil
	}
	r := it.recs[it.pos]
	it.pos++
	return r, true, nil
}

func (it *memIterator) Close() error { return nil }

// Open implements Store.
func (m *Mem) Open(name string) (Iterator, error) {
	m.mu.RLock()
	recs, ok := m.files[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dfs: open %s: no such file", name)
	}
	return &memIterator{recs: recs}, nil
}

// List implements Store.
func (m *Mem) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out, nil
}

// Remove implements Store.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("dfs: remove %s: no such file", name)
	}
	delete(m.files, name)
	return nil
}

// Exists implements Store.
func (m *Mem) Exists(name string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.files[name]
	return ok
}

// Stat implements Store.
func (m *Mem) Stat(name string) (records, bytes int64, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	recs, ok := m.files[name]
	if !ok {
		return 0, 0, fmt.Errorf("dfs: stat %s: no such file", name)
	}
	for _, r := range recs {
		bytes += int64(len(r))
	}
	return int64(len(recs)), bytes, nil
}
