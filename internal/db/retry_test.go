package db

import "testing"

// flakyKV fails every operation with a transient error until the budget
// runs out, then delegates to an inner MemDB.
type flakyKV struct {
	inner    KV
	failures int // transient failures still to inject
	calls    int // operations attempted (including failed ones)
}

type stubTransient struct{}

func (stubTransient) Error() string   { return "stub: transient" }
func (stubTransient) Transient() bool { return true }

func (f *flakyKV) fail() bool {
	f.calls++
	if f.failures != 0 {
		if f.failures > 0 {
			f.failures--
		}
		return true
	}
	return false
}

func (f *flakyKV) Get(key []byte) ([]byte, bool, error) {
	if f.fail() {
		return nil, false, stubTransient{}
	}
	return f.inner.Get(key)
}
func (f *flakyKV) Has(key []byte) (bool, error) {
	if f.fail() {
		return false, stubTransient{}
	}
	return f.inner.Has(key)
}
func (f *flakyKV) NewBatch() Batch { return &flakyBatch{Batch: f.inner.NewBatch(), f: f} }
func (f *flakyKV) Stats() Stats    { return f.inner.Stats() }

// flakyBatch fails its Write, applying nothing, while its store's budget
// lasts.
type flakyBatch struct {
	Batch
	f *flakyKV
}

func (b *flakyBatch) Write() error {
	if b.f.fail() {
		return stubTransient{}
	}
	return b.Batch.Write()
}

// TestRetryAbsorbsBoundedFaults: Retry re-attempts transient errors up to
// the budget and surfaces the fault when the budget is spent.
func TestRetryAbsorbsBoundedFaults(t *testing.T) {
	f := &flakyKV{inner: NewMemDB(), failures: 3}
	r := NewRetry(f, 4)
	b := r.NewBatch()
	b.Put([]byte("k"), []byte("v"))
	if err := b.Write(); err != nil {
		t.Fatalf("Write with 3 faults under 4 attempts: %v", err)
	}
	if f.calls != 4 {
		t.Fatalf("attempts = %d, want 4", f.calls)
	}
	if v, ok, err := r.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after the retried Write = %q %v %v", v, ok, err)
	}

	f.failures = 4
	f.calls = 0
	b.Put([]byte("k"), []byte("v2"))
	err := b.Write()
	if !IsTransient(err) {
		t.Fatalf("exhausted budget returned %v, want the transient fault", err)
	}
	if f.calls != 4 {
		t.Fatalf("attempts = %d, want 4 (budget)", f.calls)
	}
	if b.Len() != 1 {
		t.Fatalf("failed Write left Len %d, want the op still queued", b.Len())
	}
	if v, _, _ := f.inner.Get([]byte("k")); string(v) != "v" {
		t.Fatalf("failed Write applied %q", v)
	}
}
