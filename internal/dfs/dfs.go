// Package dfs provides the small distributed-file-system abstraction the
// MapReduce engine keeps its intermediate cycle outputs and spill runs on. It
// plays the role HDFS plays for Hadoop in the paper: named files of records.
// A record is a string of arbitrary bytes — the engine's are fixed-width
// binary (core/codec.go) — so nothing here gives any byte a meaning: the
// in-memory store (fast, used by tests and benchmarks) keeps the strings, the
// on-disk store (used by the CLIs so large shuffles spill out of RAM) frames
// each with its length. Relations are not stored here; their text files are
// read by package relation.
package dfs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// --- In-memory backend ---

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

// --- On-disk backend ---

// Disk is a Store rooted at a directory. File names may contain '/' which
// maps to subdirectories. A file is its records one after the other, each
// preceded by its length as a uvarint. Disk is safe for concurrent use of
// distinct files.
type Disk struct {
	root string
}

// NewDisk returns a store rooted at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: create root %s: %w", dir, err)
	}
	return &Disk{root: dir}, nil
}

func (d *Disk) path(name string) (string, error) {
	clean := filepath.Clean(name)
	if clean == "." || strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("dfs: invalid file name %q", name)
	}
	return filepath.Join(d.root, clean), nil
}

type diskWriter struct {
	f      *os.File
	tmp    string
	final  string
	bw     *bufio.Writer
	closed bool
}

func (w *diskWriter) Write(record string) error {
	if w.closed {
		return fmt.Errorf("dfs: write to closed file %s", w.final)
	}
	var frame [binary.MaxVarintLen64]byte
	if _, err := w.bw.Write(frame[:binary.PutUvarint(frame[:], uint64(len(record)))]); err != nil {
		return err
	}
	_, err := w.bw.WriteString(record)
	return err
}

func (w *diskWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	// Publish atomically: a file is visible only once fully written,
	// mirroring HDFS's create-then-close semantics.
	return os.Rename(w.tmp, w.final)
}

// Create implements Store.
func (d *Disk) Create(name string) (Writer, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	tmp := p + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	return &diskWriter{f: f, tmp: tmp, final: p, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

// maxRecord bounds the length a frame may announce, so that a damaged file
// fails with an error instead of an allocation of whatever its bytes spell.
const maxRecord = 1 << 24

type diskIterator struct {
	f   *os.File
	br  *bufio.Reader
	buf []byte
}

func (it *diskIterator) Next() (string, bool, error) {
	n, err := binary.ReadUvarint(it.br)
	if err == io.EOF {
		return "", false, nil // the file ends between records
	}
	if err == nil && n > maxRecord {
		err = fmt.Errorf("frame announces %d bytes", n)
	}
	if err == nil {
		it.buf = slices.Grow(it.buf[:0], int(n))[:n]
		_, err = io.ReadFull(it.br, it.buf)
	}
	if err != nil {
		return "", false, fmt.Errorf("dfs: %s: damaged record: %w", it.f.Name(), err)
	}
	return string(it.buf), true, nil
}

func (it *diskIterator) Close() error { return it.f.Close() }

// Open implements Store.
func (d *Disk) Open(name string) (Iterator, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("dfs: open %s: %w", name, err)
	}
	return &diskIterator{f: f, br: bufio.NewReaderSize(f, 1<<16)}, nil
}

// List implements Store.
func (d *Disk) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.Walk(d.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.HasSuffix(path, ".tmp") {
			return err
		}
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, prefix) {
			out = append(out, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(out)
	return out, nil
}

// Remove implements Store.
func (d *Disk) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

// Exists implements Store.
func (d *Disk) Exists(name string) bool {
	p, err := d.path(name)
	if err != nil {
		return false
	}
	_, statErr := os.Stat(p)
	return statErr == nil
}

// Stat implements Store.
func (d *Disk) Stat(name string) (records, bytes int64, err error) {
	it, err := d.Open(name)
	if err != nil {
		return 0, 0, err
	}
	defer it.Close()
	for {
		rec, ok, err := it.Next()
		if err != nil {
			return 0, 0, err
		}
		if !ok {
			return records, bytes, nil
		}
		records++
		bytes += int64(len(rec))
	}
}
