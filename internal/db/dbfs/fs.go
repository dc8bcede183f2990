// Package dbfs is the narrow filesystem seam the disk backend writes
// through: an FS of append-only, random-read files plus the real OSFS
// implementation. It lives apart from diskdb so the faultfile injection
// layer can wrap the seam without importing the store it is testing.
package dbfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the narrow filesystem surface diskdb writes through. The real
// implementation is OSFS; the faultfile package wraps any FS with
// deterministic injected failures (short writes, torn appends, fsync
// errors, read bit-rot, crash-at-op), which is how diskdb's recovery
// paths are proven.
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
