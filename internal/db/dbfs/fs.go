// Package dbfs is the narrow filesystem seam the disk backend writes
// through: an FS of append-only, random-read files, with two media behind
// it — the real OSFS and the in-memory MemFS. It lives apart from diskdb
// so the faultfile injection layer can wrap the seam without importing
// the store it is testing.
package dbfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// FS is the narrow filesystem surface diskdb writes through. OSFS is the
// real filesystem and MemFS its in-memory twin; the faultfile package
// wraps either with deterministic injected failures (short writes, torn
// appends, fsync errors, read bit-rot, crash-at-op), which is how
// diskdb's recovery paths are proven.
type FS interface {
	// Open returns the named file, creating it empty if absent.
	Open(name string) (File, error)
	// List returns the names of all files present, in any order.
	List() ([]string, error)
}

// File is one segment file: random-access reads, append-only writes, and
// the durability/repair calls recovery relies on.
type File interface {
	io.ReaderAt
	// Append writes p at the current end of the file and returns how many
	// bytes landed. A short count with a non-nil error models a torn
	// write: the prefix is on the medium.
	Append(p []byte) (int, error)
	// Truncate cuts the file to size bytes (torn-tail repair).
	Truncate(size int64) error
	// Sync flushes appended data to the medium; a record is considered
	// durable only after Sync returns nil.
	Sync() error
	// Size returns the current file length in bytes.
	Size() (int64, error)
	// Close releases the handle.
	Close() error
}

// OSFS is the real filesystem rooted at one directory.
type OSFS struct {
	dir string
}

// NewOSFS roots an FS at dir, creating the directory if needed.
func NewOSFS(dir string) (*OSFS, error) {
	if dir == "" {
		return nil, fmt.Errorf("dbfs: empty data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dbfs: creating data dir: %w", err)
	}
	return &OSFS{dir: dir}, nil
}

// Open implements FS.
func (fs *OSFS) Open(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(fs.dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &osFile{f: f, size: st.Size()}, nil
}

// List implements FS.
func (fs *OSFS) List() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// osFile tracks the append offset itself (WriteAt at the tracked size)
// so Truncate and Append compose without O_APPEND's end-of-file races.
type osFile struct {
	f  *os.File
	mu sync.Mutex
	// size is the logical end of the file: where the next Append lands.
	size int64
}

func (o *osFile) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

func (o *osFile) Append(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, err := o.f.WriteAt(p, o.size)
	o.size += int64(n)
	return n, err
}

func (o *osFile) Truncate(size int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.f.Truncate(size); err != nil {
		return err
	}
	o.size = size
	return nil
}

func (o *osFile) Sync() error { return o.f.Sync() }

func (o *osFile) Size() (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.size, nil
}

func (o *osFile) Close() error { return o.f.Close() }

// MemFS is an in-memory FS that behaves like OSFS: Open creates a file
// empty, List returns the names sorted, a read past the end returns what
// is there and io.EOF, Truncate past the end zero-fills, and a closed
// handle refuses I/O with os.ErrClosed. Every handle on a name shares its
// bytes. Safe for concurrent use. It is the medium of a fault-injected
// in-memory store; its contents live as long as the MemFS does.
type MemFS struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS { return &MemFS{files: map[string][]byte{}} }

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// memFile is one handle on a MemFS file.
type memFile struct {
	fs     *MemFS
	name   string
	closed atomic.Bool
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("dbfs: read %s: negative offset", f.name)
	}
	f.fs.mu.RLock()
	data := f.fs.files[f.name]
	var n int
	if off < int64(len(data)) {
		n = copy(p, data[off:])
	}
	f.fs.mu.RUnlock()
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Append(p []byte) (int, error) {
	if f.closed.Load() {
		return 0, os.ErrClosed
	}
	f.fs.mu.Lock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	f.fs.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Truncate(size int64) error {
	if f.closed.Load() {
		return os.ErrClosed
	}
	if size < 0 {
		return fmt.Errorf("dbfs: truncate %s: negative size", f.name)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	data := f.fs.files[f.name]
	if size <= int64(len(data)) {
		f.fs.files[f.name] = data[:size]
	} else {
		f.fs.files[f.name] = append(data, make([]byte, size-int64(len(data)))...)
	}
	return nil
}

func (f *memFile) Sync() error {
	if f.closed.Load() {
		return os.ErrClosed
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.RLock()
	defer f.fs.mu.RUnlock()
	return int64(len(f.fs.files[f.name])), nil
}

func (f *memFile) Close() error {
	if f.closed.Swap(true) {
		return os.ErrClosed
	}
	return nil
}
