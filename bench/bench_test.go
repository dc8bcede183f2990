package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{1, 2, 3, 4}); !near(got, 2.5) {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
}

func TestUnitRatesAndTail(t *testing.T) {
	// One-second slices of 1000 requests at 1 ms; one has a 50-request
	// hiccup at 100 ms, one was cut short at 500 requests.
	flat := make([]float64, minP99Samples)
	for i := range flat {
		flat[i] = 1
	}
	hiccup := append([]float64(nil), flat...)
	for i := 0; i < 50; i++ {
		hiccup[i] = 100
	}
	units := []unit{
		latencyUnit(flat, time.Second, 800*time.Millisecond, false),
		latencyUnit(hiccup[:500], time.Second, 900*time.Millisecond, false),
		latencyUnit(hiccup, time.Second, time.Second, false),
		latencyUnit(flat, time.Second, 850*time.Millisecond, false),
	}
	if got := tailMs(units); !near(got, 1) {
		t.Errorf("tail = %g ms, want 1: the hiccup slice's p99 is not the median, the short slice has none", got)
	}
	// Rates are over the whole stretch, not its best second: 3500 answers
	// in 4 s for 3.55 s of CPU.
	rate, cpu := rates(units)
	if !near(rate, 875) || !near(cpu, 3550.0/3500) {
		t.Errorf("rates = %g/s, %g ms CPU per op; want 875, %g", rate, cpu, 3550.0/3500)
	}
	// Whole-pipeline reps report the median rep, and no tail.
	reps := []unit{
		{ops: 1, dur: 3 * time.Second, cpu: 4 * time.Second, opMs: 3000},
		{ops: 1, dur: 2 * time.Second, cpu: 3 * time.Second, opMs: 2000},
		{ops: 1, dur: 4 * time.Second, cpu: 6 * time.Second, opMs: 4000},
	}
	opMs, rate, cpu := repMedians(reps)
	if !near(opMs, 3000) || !near(rate, 1.0/3) || !near(cpu, 4000) || tailMs(reps) != 0 {
		t.Errorf("median rep = %g ms, %g/s, %g ms CPU, tail %g; want 3000, 1/3, 4000, 0", opMs, rate, cpu, tailMs(reps))
	}
	if rate, cpu = rates(nil); rate != 0 || cpu != 0 {
		t.Errorf("rates(nil) = %g, %g; want 0, 0", rate, cpu)
	}
}

func TestKeyStreamsDeterministicPerSeed(t *testing.T) {
	ix := &archiveIndex{users: 50}
	cum := 0
	for _, c := range []struct {
		name string
		head uint64
		txs  int
	}{{"ETH", 3000, 900}, {"ETC", 40, 100}} {
		ci := chainIndex{name: c.name, head: c.head}
		for i := 0; i < c.txs; i++ {
			ci.txs = append(ci.txs, [32]byte{byte(len(ix.chains) + 1), byte(i >> 8), byte(i)})
		}
		cum += c.txs
		ci.cumTxs = cum
		ix.chains = append(ix.chains, ci)
	}
	draw := func(m mix, seed int64, client int) string {
		ks := newKeyStream(m, ix, seed, client, 2)
		var b strings.Builder
		for i := 0; i < 400; i++ {
			q := ks.next()
			b.Write(q.body)
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, m := range []mix{coldMix, hotMix} {
		a := draw(m, 7, 0)
		if a != draw(m, 7, 0) {
			t.Errorf("%s: the same seed gave different streams", m.name)
		}
		if a == draw(m, 8, 0) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", m.name)
		}
		if a == draw(m, 7, 1) {
			t.Errorf("%s: two clients of one seed gave the same stream", m.name)
		}
		for _, line := range strings.Split(strings.TrimSpace(a), "\n") {
			var req struct {
				JSONRPC string            `json:"jsonrpc"`
				Method  string            `json:"method"`
				Params  []json.RawMessage `json:"params"`
			}
			if err := json.Unmarshal([]byte(line), &req); err != nil || req.JSONRPC != "2.0" || req.Method == "" {
				t.Fatalf("%s: generated an invalid request %q (%v)", m.name, line, err)
			}
		}
	}
	// The hot mix's block reads sit at the head: the most frequent number
	// requested with false must be the head itself.
	ks := newKeyStream(hotMix, ix, 3, 0, 2)
	atHead, total := 0, 0
	for i := 0; i < 4000; i++ {
		q := ks.next()
		if q.kind == kBlockHashes {
			total++
			if q.from == ix.chains[q.chain].head {
				atHead++
			}
		}
	}
	if total == 0 || float64(atHead)/float64(total) < 0.2 {
		t.Errorf("zipfian block reads: %d of %d at the head, want the head to dominate", atHead, total)
	}
	// The cold mix's walk visits each of a client's keys once before any
	// repeats.
	w := newKeyStream(coldMix, ix, 3, 0, 2).walks[0].blocks
	seen := map[uint64]bool{}
	for range w.order {
		n := w.next()
		if seen[n] || n%2 != 0 {
			t.Fatalf("walk repeated or left its share at %d", n)
		}
		seen[n] = true
	}
}

func TestMixWeightsSumTo100(t *testing.T) {
	for _, m := range []mix{coldMix, hotMix} {
		sum := 0
		for _, w := range m.weights {
			sum += w
		}
		if sum != 100 {
			t.Errorf("%s mix weights sum to %d", m.name, sum)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	lat := metricDef{Name: "op_ms", Unit: "ms", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, next []float64
		want       string
	}{
		{"within the bound", lat, []float64{100, 101, 99}, []float64{104, 105, 103}, vSame},
		{"slower beyond the bound", lat, []float64{100, 101, 99}, []float64{120, 121, 119}, vWorse},
		{"faster beyond the bound", lat, []float64{100, 101, 99}, []float64{80, 81, 79}, vBetter},
		{"own spread wider than the bound", lat, []float64{100, 130, 90}, []float64{104, 105, 103}, vUnresolved},
		{"throughput fell", rate, []float64{1000, 1010, 990}, []float64{800, 810, 790}, vWorse},
		{"throughput rose", rate, []float64{1000, 1010, 990}, []float64{1200, 1210, 1190}, vBetter},
		{"no base value", lat, nil, []float64{1}, vUnresolved},
	} {
		if _, got := judge(tc.def, tc.base, tc.next); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFilesFlagsWorseAndFailures(t *testing.T) {
	mk := func(p50 float64, failed int) *resultsFile {
		f := &resultsFile{Seed: 1, Seconds: 8, Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			wr := workloadResult{Attempted: 100, Failed: failed, EndToEnd: map[string][]float64{}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = []float64{10, 10.1, 9.9}
			}
			wr.EndToEnd["op_ms"] = []float64{p50, p50 * 1.01, p50 * 0.99}
			f.Workloads[w.Name] = wr
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultsFile) string {
		enc, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(10, 0))
	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", mk(10.2, 0))); err != nil {
		t.Errorf("an A/A comparison failed: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, base, write("slow.json", mk(13, 0))); err == nil {
		t.Error("a 30% slower median was not flagged")
	}
	if err := compareFiles(&out, base, write("fails.json", mk(10, 1))); err == nil {
		t.Error("a fail_ratio increase was not flagged")
	}
}

func TestSelfTimes(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: msd(100)},
		{Name: "a", Parent: 0, Start: msd(10), End: msd(40)}, // nested child
		{Name: "a.inner", Parent: 1, Start: msd(15), End: msd(25)},
		{Name: "b", Parent: 0, Start: msd(30), End: msd(60)},  // overlaps a by 10 ms
		{Name: "c", Parent: 0, Start: msd(90), End: msd(120)}, // spills 20 ms past the root
		{Name: "open", Parent: 0, Start: msd(5), End: -1},     // never finished
	}
	self, count := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"root":    msd(100 - 50 - 10), // a∪b covers 10..60, c covers 90..100
		"a":       msd(20),
		"a.inner": msd(10),
		"b":       msd(30),
		"c":       msd(30),
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if _, ok := self["open"]; ok || count["open"] != 0 {
		t.Error("an unfinished span was counted")
	}
	if got := rootTime(spans); got != msd(100) {
		t.Errorf("root time = %v, want 100ms", got)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0, -1); id != -1 {
		t.Errorf("a nil tracer returned span %d", id)
	}
	nilTracer.end(-1)
}

// contract is the shape of ../BENCHMARK.json.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatches holds ../BENCHMARK.json to the tables in
// metrics.go. BENCH_WRITE_CONTRACT=1 rewrites the file from them.
func TestBenchmarkJSONMatches(t *testing.T) {
	want := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 12,
		Workloads:  workloads,
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		}{d.Name, d.Unit, d.Better})
	}
	enc, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	const path = "../BENCHMARK.json"
	if os.Getenv("BENCH_WRITE_CONTRACT") == "1" {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, enc) {
		t.Errorf("%s differs from the tables in metrics.go; rerun with BENCH_WRITE_CONTRACT=1", path)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Errorf("contract limits exceeded: %d per-layer, %d end-to-end, %d workloads", len(perLayer), len(endToEnd), len(workloads))
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if names[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over the length limits", d.Name)
		}
		names[d.Name] = true
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// TestQuickSmoke runs every workload at the quick scale, untraced and
// traced, in this process: each must pass its oracle and report every
// metric of its contract. No timing is asserted.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five small workloads twice")
	}
	// Archives, CSVs and traces go to a directory of the test's own, not
	// over a real run's out/.
	defer func(dir string) { outDir = dir }(outDir)
	outDir = t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(w.Name, 3, 0.3, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.Name, traced, d.Name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
				if got := res.Metrics["trace.self_sum_pct"].Value; math.Abs(got-100) > 5 {
					t.Errorf("%s: self times sum to %.1f%% of the traced op time", w.Name, got)
				}
			}
		}
	}
}
