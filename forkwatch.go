// Package forkwatch reproduces the measurement study "Stick a fork in it:
// Analyzing the Ethereum network partition" (Kiffer, Levin, Mislove —
// HotNets 2017) as a runnable system: a complete Ethereum-like substrate
// (RLP, Keccak, Merkle-Patricia tries, an EVM, the Homestead difficulty
// rule, PoW-sealed blocks, a partition-aware p2p wire protocol) plus a
// calibrated two-chain fork simulation and the paper's full analysis
// pipeline.
//
// The package is the public façade: configure a Scenario, Run it, and read
// the Report, whose accessors correspond one-to-one to the paper's
// figures. The cmd/ binaries are thin clients of this API; ExampleRun is
// the quickstart.
//
//	sc := forkwatch.NewScenario(1, 270)        // seed, days
//	rep, err := forkwatch.Run(sc)
//	fmt.Println(rep.Summary())
//	fig3 := rep.Figure3()                      // hashes-per-USD series
package forkwatch

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"forkwatch/internal/analysis"
	"forkwatch/internal/db"
	"forkwatch/internal/db/diskdb/faultfile"
	"forkwatch/internal/export"
	"forkwatch/internal/sim"
)

// Re-exported simulation types: the Scenario knobs, the engine, the event
// stream and the fidelity modes. See the sim package docs for field-level
// detail.
type (
	// Scenario configures a fork simulation run.
	Scenario = sim.Scenario
	// Engine executes a Scenario.
	Engine = sim.Engine
	// Observer receives per-block and per-day events during a run.
	Observer = sim.Observer
	// BlockEvent describes one mined block.
	BlockEvent = sim.BlockEvent
	// DayEvent describes one simulated day.
	DayEvent = sim.DayEvent
	// PartitionSpec describes one named partition of an N-way scenario
	// (Scenario.Partitions).
	PartitionSpec = sim.PartitionSpec
	// MatrixCell is one cell of the scenario-matrix sweep (grid regime ×
	// minority pool behaviour).
	MatrixCell = sim.MatrixCell
	// Mode selects ledger fidelity.
	Mode = sim.Mode
	// Collector aggregates events into the paper's statistics.
	Collector = analysis.Collector
	// Recorder captures raw block/transaction rows for export.
	Recorder = export.Recorder
	// StorageConfig selects the key-value backend full-fidelity ledgers
	// persist through (Scenario.Storage).
	StorageConfig = db.Config
	// StorageStats reports a store's read/write/hit/miss counters
	// (Engine.StorageStats).
	StorageStats = db.Stats
	// StorageFaults configures deterministic storage-fault injection for
	// full-fidelity runs (Scenario.StorageFaults): seeded I/O errors,
	// short and torn appends, bit-rot and stalls.
	StorageFaults = faultfile.Faults
	// CrashSpec schedules a storage crash mid-run (Scenario.Crashes): the
	// named chain's store is killed mid-commit, reopened and WAL-recovered.
	CrashSpec = sim.CrashSpec
)

// ParseStorageFaults parses the comma-separated key=value fault
// specification behind cmd/forksim's -storage-faults flag, e.g.
// "seed=42,readerr=0.2,writeerr=0.2,torn=0.01".
func ParseStorageFaults(spec string) (StorageFaults, error) {
	return faultfile.ParseSpec(spec)
}

// ParseCrashSpecs parses the comma-separated crash schedule behind
// cmd/forksim's -crash flag; each element is chain:day:block:op, e.g.
// "ETH:1:3:40,ETC:2:0:5".
func ParseCrashSpecs(spec string) ([]CrashSpec, error) {
	return sim.ParseCrashSpecs(spec)
}

// ParsePartitionSpecs parses the semicolon-separated partition list
// behind cmd/forksim's -partitions flag; each element is
// NAME:key=value,... — see sim.ParsePartitionSpecs for the grammar.
func ParsePartitionSpecs(spec string) ([]PartitionSpec, error) {
	return sim.ParsePartitionSpecs(spec)
}

// MatrixCells builds the scenario-matrix sweep behind cmd/forksim's
// -matrix mode: hashrate/economics regimes × minority pool behaviours.
func MatrixCells(seed int64, days int) []MatrixCell {
	return sim.MatrixCells(seed, days)
}

// Storage backend names for StorageConfig.Backend.
const (
	// StorageMem is the sharded in-memory store (default).
	StorageMem = db.BackendMem
	// StorageDisk is the log-structured file store; set
	// StorageConfig.DataDir to the directory holding its segments.
	StorageDisk = db.BackendDisk
)

// Ledger fidelities.
const (
	// ModeFast simulates headers and accounts (default; nine-month runs).
	ModeFast = sim.ModeFast
	// ModeFull materialises real blocks with EVM execution and tries.
	ModeFull = sim.ModeFull
)

// NewScenario returns the calibrated default scenario: seed drives all
// randomness; days is the horizon from the fork moment (the paper's study
// spans ~270 days).
func NewScenario(seed int64, days int) *Scenario {
	return sim.NewScenario(seed, days)
}

// NewEngine builds an engine for custom orchestration (attach your own
// observers before calling Run).
func NewEngine(sc *Scenario) (*Engine, error) {
	return sim.New(sc)
}

// Run executes the scenario and returns the analysis report.
func Run(sc *Scenario) (*Report, error) {
	eng, err := sim.New(sc)
	if err != nil {
		return nil, err
	}
	col := analysis.NewCollector(sc.Epoch)
	eng.AddObserver(col)
	if err := eng.Run(); err != nil {
		return nil, err
	}
	return &Report{Scenario: sc, Collector: col}, nil
}

// RunRecorded executes the scenario collecting both the report and the raw
// export rows, retained in memory (cmd/forksim streams its tables with
// export.Tables instead). A block the recorder refused (Recorder.Err)
// fails the run.
func RunRecorded(sc *Scenario) (*Report, *Recorder, error) {
	eng, err := sim.New(sc)
	if err != nil {
		return nil, nil, err
	}
	col := analysis.NewCollector(sc.Epoch)
	rec := &export.Recorder{}
	rec.Reserve(sc.LedgerSizeHint())
	eng.AddObserver(col)
	eng.AddObserver(rec)
	if err := eng.Run(); err != nil {
		return nil, nil, err
	}
	if err := rec.Err(); err != nil {
		return nil, nil, err
	}
	return &Report{Scenario: sc, Collector: col}, rec, nil
}

// Report exposes every figure of the paper computed over one run.
type Report struct {
	Scenario  *Scenario
	Collector *Collector
}

// Series is a set of aligned per-chain series in partition order:
// Values[i] belongs to Chains[i].
type Series struct {
	// Label names the statistic; the index unit is hours since the fork
	// for Figure 1, days for the rest.
	Label  string
	Chains []string
	Values [][]float64
}

// Chain returns the named chain's series, or nil.
func (s Series) Chain(name string) []float64 {
	for i, c := range s.Chains {
		if c == name {
			return s.Values[i]
		}
	}
	return nil
}

// Chains returns the run's partition names in order.
func (r *Report) Chains() []string { return r.Scenario.PartitionNames() }

// series builds a Series by evaluating one collector accessor per chain.
func (r *Report) series(label string, f func(chain string) []float64) Series {
	names := r.Chains()
	s := Series{Label: label, Chains: names, Values: make([][]float64, len(names))}
	for i, c := range names {
		s.Values[i] = f(c)
	}
	return s
}

// Figure1 returns the short-term dynamics: blocks/hour, mean difficulty
// and mean inter-block delta per hour.
func (r *Report) Figure1() (blocksPerHour, difficulty, delta Series) {
	c := r.Collector
	return r.series("blocks/hour", c.BlocksPerHour),
		r.series("difficulty", c.HourlyMeanDifficulty),
		r.series("delta_seconds", c.HourlyMeanDelta)
}

// Figure2 returns the long-term dynamics: daily difficulty, transactions
// per day and percent contract transactions.
func (r *Report) Figure2() (difficulty, txPerDay, pctContract Series) {
	c := r.Collector
	return r.series("difficulty", c.DailyDifficulty),
		r.series("tx/day", c.TxPerDay),
		r.series("pct_contract", c.PctContract)
}

// Figure3 returns the expected hashes-per-USD series and their Pearson
// correlation (the paper's market-efficiency headline). With more than
// two partitions the correlation is the mean over all unordered chain
// pairs.
func (r *Report) Figure3() (hashesPerUSD Series, correlation float64) {
	c := r.Collector
	s := r.series("hashes/USD", func(chain string) []float64 {
		return c.HashesPerUSD(chain, analysis.RewardEther)
	})
	names := r.Chains()
	sum, pairs := 0.0, 0
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			sum += c.PayoffCorrelation(analysis.RewardEther, names[i], names[j])
			pairs++
		}
	}
	if pairs > 0 {
		correlation = sum / float64(pairs)
	}
	return s, correlation
}

// Figure4 returns the rebroadcast ("echo") series: percent of daily
// transactions that are echoes and absolute echoes per day.
func (r *Report) Figure4() (echoPct, echoesPerDay Series) {
	c := r.Collector
	return r.series("echo_pct", c.EchoPct), r.series("echoes/day", c.EchoesPerDay)
}

// Figure4SameDay returns Fig 4's "Same time" series: echoes mined on
// more than one chain within the same day.
func (r *Report) Figure4SameDay() Series {
	return r.series("same_day_echoes", r.Collector.SameDayEchoesPerDay)
}

// Figure5 returns the top-N pool concentration series for n in {1, 3, 5}.
func (r *Report) Figure5() map[int]Series {
	c := r.Collector
	out := make(map[int]Series, 3)
	for _, n := range []int{1, 3, 5} {
		n := n
		out[n] = r.series(fmt.Sprintf("top%d_share", n), func(chain string) []float64 {
			return c.TopNShare(chain, n)
		})
	}
	return out
}

// RecoveryHours returns experiment E2 per partition, in partition order:
// the hour at which each chain sustainably produced blocks at >= 90% of
// the target rate (-1 if never).
func (r *Report) RecoveryHours() []int {
	out := make([]int, 0, len(r.Chains()))
	for _, chain := range r.Chains() {
		out = append(out, r.Collector.RecoveryHour(chain, 14, 0.9, 6))
	}
	return out
}

// Summary renders the run's key findings against the paper's six
// observations: a header naming the run, then its Observations.
func (r *Report) Summary() string {
	names := r.Chains()
	return fmt.Sprintf("forkwatch run: %d days, seed %d, partitions %s\n",
		r.Collector.Days(), r.Scenario.Seed, strings.Join(names, "/")) +
		Observations(r.Collector, names)
}

// Observations renders the O1–O6 lines of a collected run, chains in
// partition order: the first partition plays the paper's majority (ETH)
// role, and every later one is reported against it. It is the one
// reading of a run — Summary, forkanalyze over an export and forkanalyze
// following a live feed all print these lines, so one run reads the same
// on every path.
func Observations(c *Collector, names []string) string {
	anchor := names[0]
	var b strings.Builder
	days := c.Days()

	for _, minority := range names[1:] {
		fmt.Fprintf(&b, "O1/O2  %s block rate first hours: %.0f/hr vs %s %.0f/hr; max mean delta %.0fs; %s recovery at hour %d (%s %d)\n",
			minority,
			analysis.MeanOver(c.BlocksPerHour(minority), 0, 6),
			anchor,
			analysis.MeanOver(c.BlocksPerHour(anchor), 0, 6),
			analysis.MaxOver(c.HourlyMeanDelta(minority), 0, 96),
			minority, c.RecoveryHour(minority, 14, 0.9, 6), anchor, c.RecoveryHour(anchor, 14, 0.9, 6))
	}

	if days > 1 {
		last := days - 1
		dAnchor := c.DailyDifficulty(anchor)
		for i := 1; i < len(names); i++ {
			dMin := c.DailyDifficulty(names[i])
			fmt.Fprintf(&b, "O3     difficulty %s %.3g -> %.3g (x%.1f); %s %.3g -> %.3g; final ratio %.1f:1\n",
				anchor, dAnchor[0], dAnchor[last], safeDiv(dAnchor[last], dAnchor[0]),
				names[i], dMin[0], dMin[last], safeDiv(dAnchor[last], dMin[last]))
		}
	}

	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			fmt.Fprintf(&b, "O4     hashes/USD correlation %s vs %s: %.4f\n",
				names[i], names[j], c.PayoffCorrelation(analysis.RewardEther, names[i], names[j]))
		}
	}

	echoes := make([]string, len(names))
	for i, name := range names {
		echoes[i] = fmt.Sprintf("%d into %s", c.TotalEchoes(name), name)
	}
	tail := names[len(names)-1]
	fmt.Fprintf(&b, "O5     echoes: %s; peak %.0f%% of %s daily txs; last-10-day mean %.1f/day\n",
		strings.Join(echoes, ", "),
		analysis.MaxOver(c.EchoPct(tail), 0, days), tail,
		analysis.MeanOver(c.EchoesPerDay(tail), days-10, days))

	if days > 1 {
		last := days - 1
		shares := make([]string, len(names))
		for i, name := range names {
			t5 := c.TopNShare(name, 5)
			shares[i] = fmt.Sprintf("%s %.2f -> %.2f", name, t5[0], t5[last])
		}
		fmt.Fprintf(&b, "O6     top-5 pool share: %s\n", strings.Join(shares, "; "))
	}
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// WriteFigureCSV writes one figure's series as CSV: an index column
// followed by one column per chain, headed <lowercase chain>_<label> —
// for the historical pair exactly the legacy index,eth_*,etc_* layout.
func WriteFigureCSV(w io.Writer, s Series) error {
	var hb strings.Builder
	hb.WriteString("index")
	for _, chain := range s.Chains {
		fmt.Fprintf(&hb, ",%s_%s", strings.ToLower(chain), s.Label)
	}
	hb.WriteByte('\n')
	if _, err := io.WriteString(w, hb.String()); err != nil {
		return err
	}
	n := 0
	for _, vs := range s.Values {
		if len(vs) > n {
			n = len(vs)
		}
	}
	at := func(xs []float64, i int) float64 {
		if i < len(xs) {
			return xs[i]
		}
		return 0
	}
	for i := 0; i < n; i++ {
		var rb strings.Builder
		fmt.Fprintf(&rb, "%d", i)
		for _, vs := range s.Values {
			fmt.Fprintf(&rb, ",%g", at(vs, i))
		}
		rb.WriteByte('\n')
		if _, err := io.WriteString(w, rb.String()); err != nil {
			return err
		}
	}
	return nil
}

// RenderFigures renders every figure CSV cmd/forksim emits, keyed by file
// name — the byte-identity currency of the golden and parallelism tests.
func RenderFigures(rep *Report) (map[string][]byte, error) {
	out := make(map[string][]byte)
	put := func(name string, s Series) error {
		var buf bytes.Buffer
		if err := WriteFigureCSV(&buf, s); err != nil {
			return fmt.Errorf("render %s: %w", name, err)
		}
		out[name] = buf.Bytes()
		return nil
	}
	bph, diffH, deltaH := rep.Figure1()
	diffD, txD, pctC := rep.Figure2()
	hpu, _ := rep.Figure3()
	echoPct, echoes := rep.Figure4()
	for _, f := range []struct {
		name string
		s    Series
	}{
		{"fig1_blocks_per_hour.csv", bph},
		{"fig1_difficulty.csv", diffH},
		{"fig1_delta.csv", deltaH},
		{"fig2_difficulty.csv", diffD},
		{"fig2_tx_per_day.csv", txD},
		{"fig2_pct_contract.csv", pctC},
		{"fig3_hashes_per_usd.csv", hpu},
		{"fig4_echo_pct.csv", echoPct},
		{"fig4_echoes_per_day.csv", echoes},
	} {
		if err := put(f.name, f.s); err != nil {
			return nil, err
		}
	}
	top := rep.Figure5()
	ns := make([]int, 0, len(top))
	for n := range top {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		if err := put(fmt.Sprintf("fig5_top%d.csv", n), top[n]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
