package forkwatch_test

import (
	"bytes"
	"fmt"
	"testing"

	"forkwatch"
	"forkwatch/internal/analysis"
)

// renderFigures writes every figure CSV the forksim binary emits into
// byte buffers keyed by file name.
func renderFigures(t *testing.T, rep *forkwatch.Report) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	put := func(name string, s forkwatch.Series) {
		var buf bytes.Buffer
		if err := forkwatch.WriteFigureCSV(&buf, s); err != nil {
			t.Fatalf("render %s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	bph, diffH, deltaH := rep.Figure1()
	put("fig1_blocks_per_hour.csv", bph)
	put("fig1_difficulty.csv", diffH)
	put("fig1_delta.csv", deltaH)
	diffD, txD, pctC := rep.Figure2()
	put("fig2_difficulty.csv", diffD)
	put("fig2_tx_per_day.csv", txD)
	put("fig2_pct_contract.csv", pctC)
	hpu, _ := rep.Figure3()
	put("fig3_hashes_per_usd.csv", hpu)
	echoPct, echoes := rep.Figure4()
	put("fig4_echo_pct.csv", echoPct)
	put("fig4_echoes_per_day.csv", echoes)
	for n, s := range rep.Figure5() {
		put(fmt.Sprintf("fig5_top%d.csv", n), s)
	}
	return out
}

// TestChaosFiguresByteIdentical is the storage chaos acceptance test: a
// full-fidelity run on the mem backend — so its faulted stores sit on an
// in-memory medium — under 20% injected read/write faults, random short
// and torn appends and scheduled mid-commit crash/restart cycles must
// produce figure CSVs byte-identical to the fault-free run. Faults are
// absorbed by truncate-repair, retries, segment replay and deterministic
// re-mining — never by changing what the simulation observes.
func TestChaosFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-fidelity chaos run")
	}
	mk := func() *forkwatch.Scenario {
		sc := forkwatch.NewScenario(5, 2)
		sc.Mode = forkwatch.ModeFull
		sc.DayLength = 3600
		sc.Users = 40
		sc.ETHTxPerDay = 30
		sc.ETCTxPerDay = 12
		return sc
	}

	clean, err := forkwatch.Run(mk())
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	chaos := mk()
	chaos.StorageFaults = forkwatch.StorageFaults{
		Seed:           99,
		ReadErrRate:    0.20,
		WriteErrRate:   0.20,
		ShortWriteRate: 0.002,
		TornWriteRate:  0.002,
	}
	chaos.Crashes = []forkwatch.CrashSpec{
		{Chain: "ETH", Day: 0, Block: 4, Op: 3},    // the commit three blocks later
		{Chain: "ETH", Day: 1, Block: 2, Op: 40},   // forty blocks later
		{Chain: "ETC", Day: 1, Block: 0, Op: 1},    // the next ETC commit
		{Chain: "ETH", Day: 1, Block: 7, Op: 1000}, // past the end of the run: armed, never torn
	}
	eng, err := forkwatch.NewEngine(chaos)
	if err != nil {
		t.Fatalf("chaos engine: %v", err)
	}
	col := analysis.NewCollector(chaos.Epoch)
	eng.AddObserver(col)
	if err := eng.Run(); err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	faulty := &forkwatch.Report{Scenario: chaos, Collector: col}

	// The run must have exercised the chaos paths, not dodged them.
	if fired := eng.CrashesFired(); fired == 0 {
		t.Error("no scheduled crashes fired; chaos run is vacuous")
	}
	if evs := eng.StorageFaultEvents(); evs == 0 {
		t.Error("no storage faults logged; chaos run is vacuous")
	}

	want := renderFigures(t, clean)
	got := renderFigures(t, faulty)
	if len(got) != len(want) {
		t.Fatalf("figure count: got %d want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s missing from chaos run", name)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs between fault-free and chaos runs (%d vs %d bytes)", name, len(w), len(g))
		}
	}
	if cs, fs := clean.Summary(), faulty.Summary(); cs != fs {
		t.Errorf("summaries diverge:\nclean:\n%s\nchaos:\n%s", cs, fs)
	}
}
