// Package metrics is a dependency-free instrumentation registry:
// counters, gauges and latency histograms backed by atomics, named once
// and shared by every hot path that wants to count something.
//
// The serving layer (internal/rpc) threads a Registry through its worker
// pool, caches and rate limiters and surfaces a JSON snapshot at
// /debug/metrics, alongside the storage layer's db.Stats counters —
// the operational window a measurement pipeline at the paper's scale
// ("export every block and transaction to a database") needs once it
// serves queries instead of only ingesting.
//
// All types are safe for concurrent use. Updates are single atomic
// operations; snapshots are read-only and may lag concurrent updates by
// design.
package metrics

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depth, open conns).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// defBounds are the default histogram bucket upper bounds in seconds:
// exponential from 50µs to ~26s, sized for request latencies.
var defBounds = func() []float64 {
	b := make([]float64, 0, 20)
	for v := 50e-6; v < 30; v *= 2 {
		b = append(b, v)
	}
	return b
}()

// Histogram accumulates observations into fixed exponential buckets and
// estimates quantiles by linear interpolation inside the landing bucket.
type Histogram struct {
	bounds []float64       // upper bound of bucket i; last bucket is +inf
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sumNS  atomic.Uint64 // sum of observations, nanoseconds
}

// NewHistogram returns a histogram over the default latency buckets.
func NewHistogram() *Histogram {
	return &Histogram{bounds: defBounds, counts: make([]atomic.Uint64, len(defBounds)+1)}
}

// Observe records one observation in seconds.
func (h *Histogram) Observe(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		return
	}
	// Sum, then count, then bucket; Snapshot reads them in the opposite
	// order, so each value it loads covers the observations behind the
	// ones it loaded before (a non-zero count never meets a zero mean).
	h.sumNS.Add(uint64(seconds * 1e9))
	h.count.Add(1)
	h.counts[sort.SearchFloat64s(h.bounds, seconds)].Add(1)
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean observation in seconds (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumNS.Load()) / 1e9 / float64(n)
}

// Quantile estimates the q-th quantile (0 < q <= 1) in seconds. The
// estimate interpolates linearly within the landing bucket; observations
// past the last bound report that bound.
func (h *Histogram) Quantile(q float64) float64 {
	counts, total := h.buckets()
	return h.quantile(counts, total, q)
}

// buckets copies the bucket counts once and totals the copy, so that
// everything derived from it is consistent with itself while writers keep
// observing.
func (h *Histogram) buckets() (counts []uint64, total uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

func (h *Histogram) quantile(counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range counts {
		c := float64(n)
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*((rank-cum)/c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is the exported view of one histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P90   float64 `json:"p90_s"`
	P99   float64 `json:"p99_s"`
}

// Snapshot returns the histogram's exported view. The count and the three
// quantiles come from one copy of the buckets: taken from the live counters
// one after another under writers, P90 could land above P99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts, total := h.buckets()
	return HistogramSnapshot{
		Count: total,
		Mean:  h.Mean(),
		P50:   h.quantile(counts, total, 0.50),
		P90:   h.quantile(counts, total, 0.90),
		P99:   h.quantile(counts, total, 0.99),
	}
}

// Registry names and owns a process's metrics. Lookups create on first
// use, so call sites just ask for the name they want; a name is bound to
// one kind for the registry's lifetime (asking for an existing name with
// a different kind returns a fresh unregistered instrument rather than
// panicking on a hot path).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() float64{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram()
	r.hists[name] = h
	return h
}

// GaugeFunc registers a callback sampled at snapshot time (e.g. a
// db.Stats field read from the storage layer). Re-registering a name
// replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot returns every metric's current value keyed by name. Counter
// and gauge values are numbers; histograms are HistogramSnapshot objects;
// gauge funcs are sampled during the call.
//
// Gauge-func callbacks are sampled AFTER the registry lock is released:
// callbacks reach into other subsystems (chain heads, sync trackers,
// storage stats) that take their own locks, and sampling them under the
// registry lock would let one slow or deadlocked callback wedge every
// metric lookup in the process. A func registered under the same name as
// a plain metric wins, so subsystems can upgrade a pre-registered static
// default (e.g. the serving layer's zeroed replica gauges) to a live
// source.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.RUnlock()
	for name, fn := range funcs {
		out[name] = fn()
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with sorted keys (the
// /debug/metrics payload).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
