package forkwatch_test

import (
	"bytes"
	"runtime"
	"testing"

	"forkwatch"
	"forkwatch/internal/analysis"
)

// runFigures runs the scenario and renders every figure CSV.
func runFigures(t *testing.T, sc *forkwatch.Scenario) map[string][]byte {
	t.Helper()
	rep, err := forkwatch.Run(sc)
	if err != nil {
		t.Fatalf("run (parallelism %d): %v", sc.Parallelism, err)
	}
	return renderFigures(t, rep)
}

// compareFigures asserts two figure sets are byte-identical.
func compareFigures(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: figure count %d, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: %s missing", label, name)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s differs (%d vs %d bytes)", label, name, len(w), len(g))
		}
	}
}

// TestParallelFiguresByteIdentical is the tentpole acceptance test: the
// engine must produce byte-identical figure CSVs whether the two
// partitions are stepped serially (Parallelism 1), on two goroutines, or
// at whatever GOMAXPROCS resolves to. Every stochastic component draws
// from its own seed-derived stream and cross-chain effects happen at the
// day barrier in fixed order, so scheduling must never leak into output.
func TestParallelFiguresByteIdentical(t *testing.T) {
	days := 40
	if testing.Short() {
		days = 12
	}
	mk := func(par int) *forkwatch.Scenario {
		sc := forkwatch.NewScenario(3, days)
		sc.Parallelism = par
		return sc
	}

	serial := runFigures(t, mk(1))
	compareFigures(t, "parallelism 2", serial, runFigures(t, mk(2)))
	if gmp := runtime.GOMAXPROCS(0); gmp != 2 {
		compareFigures(t, "parallelism GOMAXPROCS", serial, runFigures(t, mk(0)))
	}
}

// TestParallelFullModeByteIdentical pins the full-fidelity substrate too:
// real blocks, EVM execution, PoW seals — serial vs concurrent stepping
// must agree byte for byte, including the ledger heads.
func TestParallelFullModeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity run")
	}
	mk := func(par int) *forkwatch.Scenario {
		sc := forkwatch.NewScenario(7, 2)
		sc.Mode = forkwatch.ModeFull
		sc.DayLength = 3600
		sc.Users = 40
		sc.ETHTxPerDay = 30
		sc.ETCTxPerDay = 12
		sc.Parallelism = par
		return sc
	}
	compareFigures(t, "full mode", runFigures(t, mk(1)), runFigures(t, mk(2)))
}

// TestParallelChaosFiguresByteIdentical crosses the two hard guarantees:
// 20% injected storage faults plus scheduled mid-commit crashes, stepped
// serially and in parallel, must still render byte-identical figures —
// the parallel mining path recovers through the same restart machinery.
// (Name carries "Chaos" so `make chaos` picks it up.)
func TestParallelChaosFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity chaos run")
	}
	mk := func(par int) *forkwatch.Scenario {
		sc := forkwatch.NewScenario(5, 2)
		sc.Mode = forkwatch.ModeFull
		sc.DayLength = 3600
		sc.Users = 40
		sc.ETHTxPerDay = 30
		sc.ETCTxPerDay = 12
		sc.Parallelism = par
		sc.StorageFaults = forkwatch.StorageFaults{
			Seed:           99,
			ReadErrRate:    0.20,
			WriteErrRate:   0.20,
			ShortWriteRate: 0.002,
			TornWriteRate:  0.002,
		}
		sc.Crashes = []forkwatch.CrashSpec{
			{Chain: "ETH", Day: 0, Block: 4, Op: 3},
			{Chain: "ETH", Day: 1, Block: 2, Op: 40},
			{Chain: "ETC", Day: 1, Block: 0, Op: 1},
		}
		return sc
	}

	run := func(par int) (map[string][]byte, int) {
		sc := mk(par)
		eng, err := forkwatch.NewEngine(sc)
		if err != nil {
			t.Fatalf("engine (parallelism %d): %v", par, err)
		}
		col := analysis.NewCollector(sc.Epoch)
		eng.AddObserver(col)
		if err := eng.Run(); err != nil {
			t.Fatalf("run (parallelism %d): %v", par, err)
		}
		return renderFigures(t, &forkwatch.Report{Scenario: sc, Collector: col}), eng.CrashesFired()
	}

	serial, serialCrashes := run(1)
	parallel, parallelCrashes := run(2)
	if serialCrashes == 0 || parallelCrashes == 0 {
		t.Fatalf("crashes fired: serial %d, parallel %d — chaos run is vacuous", serialCrashes, parallelCrashes)
	}
	compareFigures(t, "chaos parallel", serial, parallel)
}
