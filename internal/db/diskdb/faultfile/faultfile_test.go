package faultfile

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"forkwatch/internal/db"
	"forkwatch/internal/db/dbfs"
)

// onMedium returns how many bytes the named file holds on m, past the
// injection layer.
func onMedium(t *testing.T, m *dbfs.MemFS, name string) int {
	t.Helper()
	f, err := m.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	return int(n)
}

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
	a := drive(t, Wrap(dbfs.NewMemFS(), plan))
	b := drive(t, Wrap(dbfs.NewMemFS(), plan))
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
	c := drive(t, Wrap(dbfs.NewMemFS(), plan))
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
	m := dbfs.NewMemFS()
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
	if got := onMedium(t, m, "seg"); got != 30+n {
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
	if got := onMedium(t, m, "seg"); got != 30+n+4 {
		t.Fatalf("medium holds %d bytes after reopen append, want %d", got, 30+n+4)
	}
}

// TestCrashAtWriteOp: a crash armed several appends ahead lets the
// appends before it land whole, syncs do not count towards it, and
// Reopen disarms it.
func TestCrashAtWriteOp(t *testing.T) {
	m := dbfs.NewMemFS()
	s := Wrap(m, Faults{Seed: 7})
	f, err := s.Open("seg")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Append([]byte("0123")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	// Arm append 6: appends 4 and 5 land, each followed by a sync that
	// must not move the count, and append 6 tears.
	s.CrashAtWriteOp(6)
	for i := 0; i < 2; i++ {
		if _, err := f.Append([]byte("4567")); err != nil {
			t.Fatalf("append %d before the armed one: %v", 4+i, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("sync before the armed append: %v", err)
		}
	}
	if got := s.WriteOps(); got != 5 {
		t.Fatalf("WriteOps = %d, want 5", got)
	}
	if s.Crashed() {
		t.Fatal("medium crashed before the armed append")
	}
	n, err := f.Append([]byte("89ab"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed append: n=%d err=%v, want ErrCrashed", n, err)
	}
	if got := onMedium(t, m, "seg"); got != 20+n {
		t.Fatalf("medium holds %d bytes, want %d (5 appends + %d-byte tear)", got, 20+n, n)
	}
	if got := s.WriteOps(); got != 5 {
		t.Fatalf("WriteOps after tear = %d, want 5", got)
	}

	// Reopen disarms: appends past the old armed point go through.
	s.Reopen()
	f2, err := s.Open("seg")
	if err != nil {
		t.Fatalf("open after reopen: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f2.Append([]byte("cdef")); err != nil {
			t.Fatalf("append %d after reopen: %v", i, err)
		}
	}
	if got := s.WriteOps(); got != 8 {
		t.Fatalf("WriteOps after reopen = %d, want 8", got)
	}
}

// TestShortWriteLeavesPrefix: a short write must put a strict prefix on
// the medium and fail with the transient ErrInjected so db.Retry will
// re-attempt after the store truncate-repairs.
func TestShortWriteLeavesPrefix(t *testing.T) {
	m := dbfs.NewMemFS()
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
	if got := onMedium(t, m, "seg"); got != n {
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
	s := Wrap(dbfs.NewMemFS(), Faults{Seed: 1, ReadErrRate: 1, WriteErrRate: 1, ShortWriteRate: 1, CorruptRate: 1})
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

// TestErrorClassification: injected I/O errors are transient (db.Retry
// absorbs them, wrapped or not); a crash is not — it needs a reopen and
// recovery.
func TestErrorClassification(t *testing.T) {
	if !db.IsTransient(ErrInjected) {
		t.Fatal("ErrInjected must be transient (db.Retry absorbs it)")
	}
	if db.IsTransient(ErrCrashed) {
		t.Fatal("ErrCrashed must not be transient (requires reopen+recovery)")
	}
	if !db.IsTransient(fmt.Errorf("append failed: %w", ErrInjected)) {
		t.Fatal("wrapped ErrInjected must stay transient")
	}
}

// TestTornWriteAppliesStrictPrefix: a random torn write puts a strict
// prefix on the medium and kills it, unlike a short write.
func TestTornWriteAppliesStrictPrefix(t *testing.T) {
	m := dbfs.NewMemFS()
	s := Wrap(m, Faults{Seed: 1, TornWriteRate: 1})
	f, err := s.Open("seg")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Append([]byte("0123456789"))
	if !errors.Is(err, ErrCrashed) || !s.Crashed() {
		t.Fatalf("torn write: n=%d err=%v crashed=%v, want a crash", n, err, s.Crashed())
	}
	if n < 0 || n >= 10 || onMedium(t, m, "seg") != n {
		t.Fatalf("torn write landed %d bytes (medium holds %d), want the same strict prefix of 10", n, onMedium(t, m, "seg"))
	}
	s.Reopen()
	if _, err := f.Append([]byte("after")); err == nil {
		t.Fatal("TornWriteRate=1 let an append through after the reopen")
	}
}

// TestBitRotFlipsOneBitInCopy: bit-rot damages exactly one bit of the
// caller's buffer and never the medium.
func TestBitRotFlipsOneBitInCopy(t *testing.T) {
	m := dbfs.NewMemFS()
	orig := []byte{0x00, 0x11, 0x22, 0x33}
	raw, _ := m.Open("seg")
	raw.Append(orig)
	f, err := Wrap(m, Faults{Seed: 3, CorruptRate: 1}).Open("seg")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(orig))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		for b := got[i] ^ orig[i]; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit-rot flipped %d bits, want exactly 1", diff)
	}
	stored := make([]byte, len(orig))
	raw.ReadAt(stored, 0)
	if !bytes.Equal(stored, orig) {
		t.Fatal("bit-rot mutated the medium")
	}
}

// TestWriteErrAtomic: a clean write error lands nothing and does not
// crash the medium; an fsync error is transient too.
func TestWriteErrAtomic(t *testing.T) {
	m := dbfs.NewMemFS()
	s := Wrap(m, Faults{Seed: 5, WriteErrRate: 1})
	f, err := s.Open("seg")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Append([]byte("payload")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("Append = %d %v, want 0 ErrInjected", n, err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync = %v, want ErrInjected", err)
	}
	if s.Crashed() || onMedium(t, m, "seg") != 0 || s.WriteOps() != 0 {
		t.Fatalf("failed write: crashed=%v, %d bytes on the medium, %d appends counted", s.Crashed(), onMedium(t, m, "seg"), s.WriteOps())
	}
}

// TestStall: every StallEvery-th operation sleeps Stall and is journaled.
func TestStall(t *testing.T) {
	s := Wrap(dbfs.NewMemFS(), Faults{Seed: 9, StallEvery: 2, Stall: 5 * time.Millisecond})
	f, err := s.Open("seg") // operation 1
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 3; i++ { // operations 2..4
		if _, err := f.Append([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("4 ops with stall-every-2 took %v, want >= 10ms", d)
	}
	stalls := 0
	for _, ev := range s.Journal() {
		if ev.Kind == "stall" {
			stalls++
		}
	}
	if stalls != 2 {
		t.Fatalf("journaled %d stalls, want 2", stalls)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	f, err := ParseSpec("seed=42, readerr=0.2,writeerr=0.1,torn=0.01,corrupt=0.001,stallevery=1000,stall=1ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Faults{Seed: 42, ReadErrRate: 0.2, WriteErrRate: 0.1, ShortWriteRate: 0.01, TornWriteRate: 0.01,
		CorruptRate: 0.001, StallEvery: 1000, Stall: time.Millisecond}
	if f != want {
		t.Fatalf("ParseSpec = %+v, want %+v", f, want)
	}
	if !f.Enabled() {
		t.Fatal("parsed plan should be enabled")
	}

	empty, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Enabled() {
		t.Fatal("empty spec must disable injection")
	}

	for _, bad := range []string{
		"readerr=1.5", "bogus=1", "seed", "torn=x",
		// Each of these parsed to a plan that injects nothing.
		"readerr=NaN", "corrupt=nan", "writeerr=-0.1", "stallevery=-5,stall=1ms", "stallevery=5,stall=-1ms",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid input", bad)
		}
	}
}

// FuzzParseSpec: parsing never panics, and every accepted plan has each
// rate in [0,1] and no negative stall field.
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=42,readerr=0.2,writeerr=0.2,torn=0.01,corrupt=0.001,stallevery=1000,stall=1ms")
	f.Add("readerr=NaN")
	f.Add("stallevery=-1,stall=-1s")
	f.Add(" , =,torn=1e-3")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, r := range []float64{p.ReadErrRate, p.WriteErrRate, p.ShortWriteRate, p.TornWriteRate, p.CorruptRate} {
			if math.IsNaN(r) || r < 0 || r > 1 {
				t.Fatalf("ParseSpec(%q) accepted rate %v: %+v", spec, r, p)
			}
		}
		if p.StallEvery < 0 || p.Stall < 0 {
			t.Fatalf("ParseSpec(%q) accepted a negative stall: %+v", spec, p)
		}
	})
}
