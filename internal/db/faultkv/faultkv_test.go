package faultkv

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"forkwatch/internal/db"
)

// workload runs a fixed deterministic operation sequence against the
// store and returns how many operations failed.
func workload(kv *KV) int {
	failures := 0
	for i := 0; i < 400; i++ {
		key := []byte{byte(i), byte(i >> 8)}
		val := bytes.Repeat([]byte{byte(i)}, 8)
		switch i % 4 {
		case 0:
			if err := kv.Put(key, val); err != nil {
				failures++
			}
		case 1:
			if _, _, err := kv.Get(key); err != nil {
				failures++
			}
		case 2:
			b := kv.NewBatch()
			b.Put(key, val)
			b.Put(append(key, 0xff), val)
			if err := b.Write(); err != nil {
				failures++
			}
		case 3:
			if _, err := kv.Has(key); err != nil {
				failures++
			}
		}
		if kv.Crashed() {
			kv.Reopen()
		}
	}
	return failures
}

func TestDeterminism(t *testing.T) {
	f := Faults{Seed: 42, ReadErrRate: 0.2, WriteErrRate: 0.2, TornBatchRate: 0.1, CorruptRate: 0.05}
	a := Wrap(db.NewMemDB(), f)
	b := Wrap(db.NewMemDB(), f)
	failsA, failsB := workload(a), workload(b)
	if failsA != failsB {
		t.Fatalf("same seed diverged: %d vs %d failures", failsA, failsB)
	}
	if failsA == 0 {
		t.Fatal("fault plan injected nothing")
	}
	ja, jb := a.Journal(), b.Journal()
	if !reflect.DeepEqual(ja, jb) {
		t.Fatalf("same seed produced different journals: %d vs %d events", len(ja), len(jb))
	}
	if len(ja) == 0 {
		t.Fatal("no journaled events")
	}

	c := Wrap(db.NewMemDB(), Faults{Seed: 43, ReadErrRate: 0.2, WriteErrRate: 0.2, TornBatchRate: 0.1, CorruptRate: 0.05})
	workload(c)
	if reflect.DeepEqual(ja, c.Journal()) {
		t.Fatal("different seeds produced identical journals")
	}
}

func TestErrorClassification(t *testing.T) {
	if !db.IsTransient(ErrInjected) {
		t.Fatal("ErrInjected must be transient (db.Retry absorbs it)")
	}
	if db.IsTransient(ErrCrashed) {
		t.Fatal("ErrCrashed must not be transient (requires reopen+recovery)")
	}
	wrapped := fmt.Errorf("put failed: %w", ErrInjected)
	if !db.IsTransient(wrapped) {
		t.Fatal("wrapped ErrInjected must stay transient")
	}
}

func TestTornBatchAppliesStrictPrefix(t *testing.T) {
	inner := db.NewMemDB()
	kv := Wrap(inner, Faults{Seed: 1, TornBatchRate: 1})

	b := kv.NewBatch()
	const n = 10
	for i := 0; i < n; i++ {
		b.Put([]byte{byte(i)}, []byte{0xaa, byte(i)})
	}
	if err := b.Write(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn batch returned %v, want ErrCrashed", err)
	}
	if !kv.Crashed() {
		t.Fatal("store must be crashed after a tear")
	}

	// A strict prefix applied: 0..tornAt-1 present, the rest absent.
	applied := 0
	for i := 0; i < n; i++ {
		ok, err := inner.Has([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if i != applied {
				t.Fatalf("non-prefix application: key %d present after gap", i)
			}
			applied++
		}
	}
	if applied >= n {
		t.Fatalf("tear applied all %d operations", n)
	}

	var torn *Event
	for _, ev := range kv.Journal() {
		if ev.Kind == "torn" {
			e := ev
			torn = &e
		}
	}
	if torn == nil {
		t.Fatal("no torn event journaled")
	}
	if torn.TornAt != applied {
		t.Fatalf("journal says %d ops applied, store has %d", torn.TornAt, applied)
	}

	// Everything fails until Reopen.
	if _, _, err := kv.Get([]byte{0}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on crashed store returned %v, want ErrCrashed", err)
	}
	if err := kv.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write on crashed store returned %v, want ErrCrashed", err)
	}
	kv.Reopen()
	if kv.Crashed() {
		t.Fatal("Reopen did not clear the crash")
	}
	if err := kv.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}

func TestCrashAtWriteOp(t *testing.T) {
	inner := db.NewMemDB()
	kv := Wrap(inner, Faults{Seed: 7})

	// Three single writes land, then arm a crash on write op 6: a 5-op
	// batch starting at op 4 must tear after exactly 2 applied ops.
	for i := 0; i < 3; i++ {
		if err := kv.Put([]byte{0xf0, byte(i)}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := kv.WriteOps(); got != 3 {
		t.Fatalf("WriteOps = %d, want 3", got)
	}
	kv.CrashAtWriteOp(6)

	b := kv.NewBatch()
	for i := 0; i < 5; i++ {
		b.Put([]byte{0xb0, byte(i)}, []byte{2})
	}
	if err := b.Write(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("armed batch returned %v, want ErrCrashed", err)
	}
	for i := 0; i < 5; i++ {
		ok, _ := inner.Has([]byte{0xb0, byte(i)})
		if want := i < 2; ok != want {
			t.Fatalf("batch op %d applied=%v, want %v", i, ok, want)
		}
	}
	if got := kv.WriteOps(); got != 5 {
		t.Fatalf("WriteOps after tear = %d, want 5", got)
	}

	// Reopen disarms: the same write sequence then succeeds.
	kv.Reopen()
	if err := kv.Put([]byte("after"), []byte("ok")); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}

func TestBitRotFlipsOneBitInCopy(t *testing.T) {
	inner := db.NewMemDB()
	orig := []byte{0x00, 0x11, 0x22, 0x33}
	if err := inner.Put([]byte("k"), append([]byte(nil), orig...)); err != nil {
		t.Fatal(err)
	}
	kv := Wrap(inner, Faults{Seed: 3, CorruptRate: 1})
	got, ok, err := kv.Get([]byte("k"))
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	diff := 0
	for i := range got {
		b := got[i] ^ orig[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("bit-rot flipped %d bits, want exactly 1", diff)
	}
	// The inner store's value must be pristine (rot is read-path only).
	stored, _, _ := inner.Get([]byte("k"))
	if !bytes.Equal(stored, orig) {
		t.Fatal("bit-rot mutated the stored value")
	}
}

func TestWriteErrAtomic(t *testing.T) {
	inner := db.NewMemDB()
	kv := Wrap(inner, Faults{Seed: 5, WriteErrRate: 1})
	if err := kv.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put returned %v, want ErrInjected", err)
	}
	b := kv.NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	if err := b.Write(); !errors.Is(err, ErrInjected) {
		t.Fatalf("batch returned %v, want ErrInjected", err)
	}
	if kv.Crashed() {
		t.Fatal("injected write error must not crash the store")
	}
	if n := inner.Len(); n != 0 {
		t.Fatalf("failed writes leaked %d keys into the store", n)
	}
}

func TestStall(t *testing.T) {
	kv := Wrap(db.NewMemDB(), Faults{Seed: 9, StallEvery: 2, Stall: 5 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := kv.Put([]byte{byte(i)}, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("4 ops with stall-every-2 took %v, want >= 10ms", d)
	}
	stalls := 0
	for _, ev := range kv.Journal() {
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
	want := Faults{Seed: 42, ReadErrRate: 0.2, WriteErrRate: 0.1, TornBatchRate: 0.01,
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

	for _, bad := range []string{"readerr=1.5", "bogus=1", "seed", "torn=x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid input", bad)
		}
	}
}

func TestRetryAbsorbsInjectedErrors(t *testing.T) {
	inner := db.NewMemDB()
	// 50% write faults: P(10 straight failures) ~ 1e-3 per op; the seed
	// below is fixed, so the run either always passes or always fails.
	kv := db.NewRetry(Wrap(inner, Faults{Seed: 11, WriteErrRate: 0.5, ReadErrRate: 0.5}), 10)
	for i := 0; i < 50; i++ {
		key := []byte{0x70, byte(i)}
		if err := kv.Put(key, []byte{byte(i)}); err != nil {
			t.Fatalf("Put %d through retry: %v", i, err)
		}
		v, ok, err := kv.Get(key)
		if err != nil || !ok || v[0] != byte(i) {
			t.Fatalf("Get %d through retry: %v %v %v", i, v, ok, err)
		}
	}
}

// countingKV wraps a faultkv.KV and counts Put attempts, to observe how
// often the retry layer re-issues an operation.
type countingKV struct {
	*KV
	puts int
}

func (c *countingKV) Put(key, value []byte) error {
	c.puts++
	return c.KV.Put(key, value)
}

func TestRetryPassesCrashThrough(t *testing.T) {
	fkv := Wrap(db.NewMemDB(), Faults{Seed: 13})
	counter := &countingKV{KV: fkv}
	kv := db.NewRetry(counter, 10)
	fkv.Crash()
	if err := kv.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put on crashed store through retry returned %v, want ErrCrashed", err)
	}
	if counter.puts != 1 {
		t.Fatalf("retry issued %d attempts against a crashed store, want 1 (fatal errors pass through)", counter.puts)
	}
}
