// Command bench is forkwatch's benchmark: five named workloads over the two
// user paths (scenario → figure CSVs, request → response against the
// archive) and the replica/restart path, six end-to-end metrics from an
// untraced run, and per-layer metrics from a separate traced run. README.md
// has the tables; ../BENCHMARK.json is the contract the driver reads.
//
//	bash bench/run.sh --workload rpc-hot-zipf --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh                       # every workload, results.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runCtx is what one workload run is given.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	sc       scale
	quick    bool
	tmp      string  // scratch directory of this run, removed on exit
	tr       *tracer // nil on the untraced run
	expected *expectedFile
}

// traced reports whether this is the per-layer run.
func (rc *runCtx) traced() bool { return rc.tr != nil }

// outcome is what a workload hands back; report turns it into metrics.
type outcome struct {
	attempted int
	failed    int
	setup     []float64 // seconds of each set-up; the median is reported
	units     []unit    // the measured section: one per rep, or per second of requests
	diskBytes int64
	layer     map[string]float64 // per-layer metrics (traced run only)
	notes     []string           // printed above the metrics

	// The measured section's end-to-end numbers: the median rep of a
	// whole-pipeline workload; for an rpc workload the median latency of
	// every correct answer, and totals over the section.
	opMs, opsPerS, cpuMsPerOp float64
	timed                     int // ops behind opMs
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

var runners = map[string]func(*runCtx) (*outcome, error){
	"figures-90d":         runFigures,
	"archive-build-disk":  runArchiveBuild,
	"replica-import-disk": runReplicaImport,
	"rpc-cold-uniform":    func(rc *runCtx) (*outcome, error) { return runRPC(rc, coldMix) },
	"rpc-hot-zipf":        func(rc *runCtx) (*outcome, error) { return runRPC(rc, hotMix) },
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outDir is where a run writes; the tests point it at a temporary directory.
var outDir = "out"

// untracedRuns is how many --trace 0 runs of each workload a run of every
// workload makes, beside the one traced run.
const untracedRuns = 3

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "drives every generated input: scenario seed, key choice, zipf draws")
		seconds  = flag.Float64("seconds", 12, "length of the measured section")
		trace    = flag.Int("trace", 0, "1 = the traced per-layer run, 0 = the untraced end-to-end run")
		quick    = flag.Bool("quick", false, "smoke scale: tiny scenarios, one rep, a fraction of a second of requests (numbers are meaningless)")
		compare  = flag.Bool("compare", false, "compare two results files: -compare base.json new.json")
		update   = flag.Bool("update-expected", false, "regenerate expected.json for seed 1")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two results files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *update:
		err = updateExpected()
	case *workload == "":
		err = runAll(*seed, *seconds, *quick)
	default:
		var res *resultLine
		if res, err = runOne(*workload, *seed, *seconds, *trace != 0, *quick); err == nil {
			// The result line is the last line of standard output.
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics.
func runOne(workload string, seed int64, seconds float64, trace, quick bool) (*resultLine, error) {
	runner, ok := runners[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	sc := fullScale
	if quick {
		sc = quickScale
	}
	tmp, err := newTmp(workload)
	if err != nil {
		return nil, err
	}
	// A run writes and deletes hundreds of megabytes. Flush before it
	// starts and after it has cleaned up, so that no run's writes are
	// throttled for its predecessor's.
	syscall.Sync()
	defer func() {
		os.RemoveAll(tmp)
		syscall.Sync()
	}()
	// A killed run must not leave its archive behind either.
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(tmp)
			os.Exit(130)
		case <-done:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(done)
	}()

	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	rc := &runCtx{workload: workload, seed: seed, seconds: seconds, sc: sc, quick: quick, tmp: tmp, expected: expected}
	if trace {
		rc.tr = newTracer()
	}
	out, err := runner(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("%s: no op was attempted", workload)
	}
	if trace {
		self, err := rc.tr.write(filepath.Join(outDir, "trace-"+workload+".json"), workload, seed)
		if err != nil {
			return nil, err
		}
		root := rootTime(rc.tr.spans)
		var sum time.Duration
		for _, d := range self {
			sum += d
		}
		if root > 0 {
			out.layer["trace.self_sum_pct"] = 100 * float64(sum) / float64(root)
		}
		out.layer["trace.spans"] = float64(len(rc.tr.spans))
	}
	return report(rc, out), nil
}

// report prints every metric as "name value unit" and builds the result
// line: the end-to-end metrics of an untraced run, the per-layer metrics
// of a traced one.
func report(rc *runCtx, out *outcome) *resultLine {
	res := &resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	unitMs := make([]float64, len(out.units))
	unitRate := make([]float64, len(out.units))
	var elapsed time.Duration
	for i, u := range out.units {
		unitMs[i] = u.opMs
		unitRate[i] = float64(u.ops) / u.dur.Seconds()
		elapsed += u.dur
	}
	lo, hi := minMax(unitMs)
	rlo, rhi := minMax(unitRate)
	fmt.Printf("# %s seed=%d trace=%v: %d ops attempted, %d failed, %d timed; %d set-ups\n",
		rc.workload, rc.seed, rc.traced(), out.attempted, out.failed, out.timed, len(out.setup))
	fmt.Printf("# %d units in %.2fs: median op time per unit min %.4g / median %.4g / max %.4g ms, ops/s per unit min %.4g / median %.4g / max %.4g\n",
		len(out.units), elapsed.Seconds(), lo, median(unitMs), hi, rlo, median(unitRate), rhi)

	var defs []metricDef
	values := map[string]float64{}
	if rc.traced() {
		defs = perLayer
		values = out.layer
		values["op.median_ms"] = median(unitMs)
		values["op.slowest_ms"] = hi
	} else {
		defs = endToEnd
		values["setup_s"] = median(out.setup)
		values["op_ms"], values["ops_per_s"], values["cpu_ms_per_op"] = out.opMs, out.opsPerS, out.cpuMsPerOp
		values["peak_rss_mb"] = float64(peakRSSBytes()) / 1e6
		values["disk_mb"] = float64(out.diskBytes) / 1e6
	}
	for _, d := range defs {
		v := values[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("%s %.6g %s\n", d.Name, v, d.Unit)
	}
	return res
}

// untraced returns a copy of the run's context that records no spans, for
// the set-ups and warm-ups of a traced run.
func (rc *runCtx) untraced() *runCtx {
	plain := *rc
	plain.tr = nil
	return &plain
}

// budget is the length of the measured section.
func (rc *runCtx) budget() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// pipeline is one rep of a whole-pipeline workload, split so that only
// what forksim, forkserve or a replica would do is timed.
type pipeline struct {
	prep  func() error                    // clears what the previous rep left
	op    func(rc *runCtx, rep int) error // the timed part
	check func(rep int) error             // the oracle over what op produced
}

// warm runs one untimed, untraced rep (number 0).
func (p pipeline) warm(rc *runCtx) error {
	if err := p.prep(); err != nil {
		return err
	}
	if err := p.op(rc.untraced(), 0); err != nil {
		return err
	}
	return p.check(0)
}

// timeSetups runs a whole-pipeline workload's set-up setupReps times and
// records how long each took.
func timeSetups(rc *runCtx, out *outcome, setup func() error) error {
	for i := 0; i < rc.sc.setupReps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	return nil
}

// measure runs a whole-pipeline op for --seconds, finishing the rep that
// is under way when they are up, and for at least minReps reps; each rep,
// numbered from 1, is one unit. The heap is settled before each rep,
// outside the timed part, so a rep does not pay for its predecessor's
// garbage. A traced run adds an untraced rep (number 0) before and after,
// to price the tracing median against median, and reports the Go runtime's
// work over the timed reps.
func measure(rc *runCtx, out *outcome, p pipeline) error {
	timed := func(rc *runCtx, rep int) (unit, error) {
		if err := p.prep(); err != nil {
			return unit{}, err
		}
		runtime.GC()
		cpu0, t0 := cpuTime(), time.Now()
		err := p.op(rc, rep)
		d, cpu := time.Since(t0), cpuTime()-cpu0
		if err == nil {
			err = p.check(rep)
		}
		return unit{ops: 1, dur: d, cpu: cpu, opMs: ms(d), traced: rc.traced()}, err
	}
	var plain []float64
	pricePlain := func() error {
		if !rc.traced() {
			return nil
		}
		u, err := timed(rc.untraced(), 0)
		plain = append(plain, u.opMs)
		return err
	}
	if err := pricePlain(); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var elapsed time.Duration
	for rep := 1; rep <= rc.sc.minReps || elapsed < rc.budget(); rep++ {
		u, err := timed(rc, rep)
		if err != nil {
			return err
		}
		elapsed += u.dur
		out.attempted++
		out.units = append(out.units, u)
	}
	runtime.ReadMemStats(&m1)
	out.opMs, out.opsPerS, out.cpuMsPerOp = repMedians(out.units)
	out.timed = len(out.units)
	if err := pricePlain(); err != nil {
		return err
	}
	if rc.traced() {
		goRuntimeLayer(out, &m0, &m1)
		out.layer["trace.overhead_pct"] = 100 * (out.opMs/median(plain) - 1)
	}
	return nil
}

// newTmp makes a scratch directory under out/tmp: every byte the benchmark
// writes stays inside its own directory.
func newTmp(prefix string) (string, error) {
	parent := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, prefix+"-")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
