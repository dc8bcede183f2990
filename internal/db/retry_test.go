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
func (f *flakyKV) Put(key, value []byte) error {
	if f.fail() {
		return stubTransient{}
	}
	return f.inner.Put(key, value)
}
func (f *flakyKV) Has(key []byte) (bool, error) {
	if f.fail() {
		return false, stubTransient{}
	}
	return f.inner.Has(key)
}
func (f *flakyKV) Delete(key []byte) error {
	if f.fail() {
		return stubTransient{}
	}
	return f.inner.Delete(key)
}
func (f *flakyKV) NewBatch() Batch { return f.inner.NewBatch() }
func (f *flakyKV) Stats() Stats    { return f.inner.Stats() }

// TestRetryAbsorbsBoundedFaults: Retry re-attempts transient errors up to
// the budget and surfaces the fault when the budget is spent.
func TestRetryAbsorbsBoundedFaults(t *testing.T) {
	f := &flakyKV{inner: NewMemDB(), failures: 3}
	r := NewRetry(f, 4)
	if err := r.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put with 3 faults under 4 attempts: %v", err)
	}
	if f.calls != 4 {
		t.Fatalf("attempts = %d, want 4", f.calls)
	}

	f.failures = 4
	f.calls = 0
	err := r.Put([]byte("k"), []byte("v2"))
	if !IsTransient(err) {
		t.Fatalf("exhausted budget returned %v, want the transient fault", err)
	}
	if f.calls != 4 {
		t.Fatalf("attempts = %d, want 4 (budget)", f.calls)
	}
}
