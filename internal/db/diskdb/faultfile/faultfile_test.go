package faultfile

import (
	"errors"
	"fmt"
	"testing"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
)

// memFS is a tiny in-memory dbfs.FS so the tests can inspect exactly
// which bytes the injection layer let through to the medium.
type memFS map[string][]byte

func (m memFS) Open(name string) (dbfs.File, error) {
	if _, ok := m[name]; !ok {
		m[name] = nil
	}
	return &memFile{m: m, name: name}, nil
}
func (m memFS) List() ([]string, error) {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	return names, nil
}

type memFile struct {
	m    memFS
	name string
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	data := f.m[f.name]
	if off+int64(len(p)) > int64(len(data)) {
		return 0, fmt.Errorf("memfile: read past end")
	}
	return copy(p, data[off:]), nil
}
func (f *memFile) Append(p []byte) (int, error) {
	f.m[f.name] = append(f.m[f.name], p...)
	return len(p), nil
}
func (f *memFile) Truncate(size int64) error {
	f.m[f.name] = f.m[f.name][:size]
	return nil
}
func (f *memFile) Sync() error          { return nil }
func (f *memFile) Size() (int64, error) { return int64(len(f.m[f.name])), nil }
func (f *memFile) Close() error         { return nil }

// drive runs a fixed operation sequence against a wrapped FS and returns
// the journal it produced.
func drive(t *testing.T, s *FS) []Event {
	t.Helper()
	f, err := s.Open("seg")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 200; i++ {
		f.Append([]byte("payload-bytes"))
		f.Sync()
		f.ReadAt(buf, 0)
	}
	return s.Journal()
}

// TestJournalDeterministic: equal seeds and equal operation sequences
// must reproduce the exact fault timeline — that is what makes a chaos
// failure replayable.
func TestJournalDeterministic(t *testing.T) {
	plan := Faults{Seed: 42, ReadErrRate: 0.1, WriteErrRate: 0.1, ShortWriteRate: 0.1, CorruptRate: 0.1}
	a := drive(t, Wrap(memFS{}, plan))
	b := drive(t, Wrap(memFS{}, plan))
	if len(a) == 0 {
		t.Fatal("plan injected nothing; rates too low for the op count")
	}
	if len(a) != len(b) {
		t.Fatalf("journal lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("journals diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	plan.Seed = 43
	c := drive(t, Wrap(memFS{}, plan))
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical journals")
	}
}

// TestCrashAtWriteOpTearsExactAppend: the armed crash must land on the
// exact append, leave a strict prefix durable on the medium, and kill
// every later operation until Reopen.
func TestCrashAtWriteOpTearsExactAppend(t *testing.T) {
	m := memFS{}
	s := Wrap(m, Faults{Seed: 7})
	f, err := s.Open("seg")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Append([]byte("0123456789")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := s.WriteOps(); got != 3 {
		t.Fatalf("WriteOps = %d, want 3", got)
	}

	s.CrashAtWriteOp(s.WriteOps() + 1)
	n, err := f.Append([]byte("0123456789"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed append: n=%d err=%v, want ErrCrashed", n, err)
	}
	if n < 0 || n >= 10 {
		t.Fatalf("tear landed %d bytes, want strict prefix of 10", n)
	}
	if got := len(m["seg"]); got != 30+n {
		t.Fatalf("medium holds %d bytes, want %d (3 appends + %d-byte tear)", got, 30+n, n)
	}
	if !s.Crashed() {
		t.Fatal("medium not marked crashed")
	}
	if _, err := f.Append([]byte("more")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash: %v, want ErrCrashed", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v, want ErrCrashed", err)
	}
	if _, err := f.ReadAt(make([]byte, 4), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after crash: %v, want ErrCrashed", err)
	}
	if _, err := s.Open("seg"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open after crash: %v, want ErrCrashed", err)
	}

	s.Reopen()
	if s.Crashed() {
		t.Fatal("Reopen left the medium crashed")
	}
	f2, err := s.Open("seg")
	if err != nil {
		t.Fatalf("open after reopen: %v", err)
	}
	if _, err := f2.Append([]byte("back")); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if got := len(m["seg"]); got != 30+n+4 {
		t.Fatalf("medium holds %d bytes after reopen append, want %d", got, 30+n+4)
	}
}

// TestShortWriteLeavesPrefix: a short write must put a strict prefix on
// the medium and fail with the transient ErrInjected so db.Retry will
// re-attempt after the store truncate-repairs.
func TestShortWriteLeavesPrefix(t *testing.T) {
	m := memFS{}
	s := Wrap(m, Faults{Seed: 3, ShortWriteRate: 1})
	f, err := s.Open("seg")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	n, err := f.Append([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: n=%d err=%v, want ErrInjected", n, err)
	}
	if !db.IsTransient(err) {
		t.Fatal("short-write error is not transient")
	}
	if n < 0 || n >= 10 {
		t.Fatalf("short write landed %d bytes, want strict prefix of 10", n)
	}
	if got := len(m["seg"]); got != n {
		t.Fatalf("medium holds %d bytes, want %d", got, n)
	}
	if s.Crashed() {
		t.Fatal("short write crashed the medium; only torn writes should")
	}
	if got := s.WriteOps(); got != 0 {
		t.Fatalf("short write counted as applied: WriteOps = %d", got)
	}
}

// TestSetEnabledGatesRandomFaults: while disabled, the plan injects
// nothing — but explicit crashes are still honoured, which is what lets
// harnesses pause injection around recovery scans without losing an
// armed crash.
func TestSetEnabledGatesRandomFaults(t *testing.T) {
	s := Wrap(memFS{}, Faults{Seed: 1, ReadErrRate: 1, WriteErrRate: 1, ShortWriteRate: 1, CorruptRate: 1})
	s.SetEnabled(false)
	f, err := s.Open("seg")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.Append([]byte("clean")); err != nil {
		t.Fatalf("append while disabled: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync while disabled: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read while disabled: %v", err)
	}
	if string(buf) != "clean" {
		t.Fatalf("read %q while disabled, want %q (no bit-rot)", buf, "clean")
	}
	if got := s.Journal(); len(got) != 0 {
		t.Fatalf("journal has %d events while disabled, want 0", len(got))
	}

	// An armed crash fires even while random injection is off.
	s.CrashAtWriteOp(s.WriteOps() + 1)
	if _, err := f.Append([]byte("boom")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed append while disabled: %v, want ErrCrashed", err)
	}

	s.Reopen()
	s.SetEnabled(true)
	f2, err := s.Open("seg")
	if err != nil {
		t.Fatalf("open after reopen: %v", err)
	}
	if _, err := f2.Append([]byte("x")); err == nil {
		t.Fatal("append with WriteErrRate=1 re-enabled succeeded")
	}
}
