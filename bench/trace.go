package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// the harness wraps the public functions it calls. Spans of one rep or
// request share Op; Parent is the index of the span that caused this one
// (-1 for an op's root).
type span struct {
	Name   string        `json:"name"`
	Op     int64         `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval (used by the observer wrappers,
// which accumulate many short calls into one span per op).
func (t *tracer) add(name string, op int64, parent int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, op int64, parent int, f func() error) error {
	id := t.begin(name, op, parent)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its direct children cover.
// Children may overlap one another (parallel work) or spill past the
// parent (a child that outlives it); coverage is the union of the child
// intervals clipped to the parent. Unfinished spans are skipped.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = map[string]time.Duration{}
	count = map[string]int{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cursor), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
		count[s.Name]++
	}
	return self, count
}

// rootTime sums the durations of the root spans (Parent == -1): the traced
// op time the self times must add up to.
func rootTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Parent < 0 && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return d
}

// maxTraceSpans caps the spans written to the trace file; the per-name
// totals always cover every span.
const maxTraceSpans = 20000

type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	SpansTotal int                `json:"spans_total"`
	RootMs     float64            `json:"root_ms"`
	SelfMs     map[string]float64 `json:"self_ms"`
	Count      map[string]int     `json:"count"`
	Spans      []span             `json:"spans"`
}

// write stores the trace as JSON at path and returns the self times.
func (t *tracer) write(path, workload string, seed int64) (map[string]time.Duration, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	self, count := selfTimes(spans)
	tf := traceFile{
		Workload:   workload,
		Seed:       seed,
		SpansTotal: len(spans),
		RootMs:     ms(rootTime(spans)),
		SelfMs:     map[string]float64{},
		Count:      count,
		Spans:      spans[:min(len(spans), maxTraceSpans)],
	}
	for name, d := range self {
		tf.SelfMs[name] = ms(d)
	}
	enc, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	return self, os.WriteFile(path, enc, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
