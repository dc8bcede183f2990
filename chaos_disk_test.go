package forkwatch_test

import (
	"bytes"
	"fmt"
	"testing"

	"forkwatch"
	"forkwatch/internal/analysis"
)

// TestChaosDiskFiguresByteIdentical ports the storage chaos acceptance
// test to the disk backend: a full-fidelity run persisting through
// log-structured segment files under 20% injected file faults (read
// errors, write errors, bit-rot), random short/torn appends and
// scheduled mid-commit crash/restart cycles must produce figure CSVs
// byte-identical to the fault-free in-memory run — at serial and
// parallel partition stepping alike. Faults are absorbed by
// truncate-repair, retries, segment replay and deterministic
// re-mining — never by changing what the simulation observes.
func TestChaosDiskFiguresByteIdentical(t *testing.T) {
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
	want := renderFigures(t, clean)

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			chaos := mk()
			chaos.Parallelism = par
			chaos.Storage = forkwatch.StorageConfig{
				Backend: forkwatch.StorageDisk,
				DataDir: t.TempDir(),
			}
			chaos.StorageFaults = forkwatch.StorageFaults{
				Seed:           99,
				ReadErrRate:    0.20,
				WriteErrRate:   0.20,
				CorruptRate:    0.01,
				ShortWriteRate: 0.002,
				TornWriteRate:  0.002,
			}
			chaos.Crashes = []forkwatch.CrashSpec{
				{Chain: "ETH", Day: 0, Block: 4, Op: 3},
				{Chain: "ETH", Day: 1, Block: 2, Op: 40},
				{Chain: "ETC", Day: 1, Block: 0, Op: 1},
				{Chain: "ETH", Day: 1, Block: 7, Op: 1000},
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
			if s := eng.StorageStats(); s.Repairs == 0 {
				t.Error("no segment repairs counted; torn appends never reached recovery")
			}

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
					t.Errorf("%s differs between fault-free mem and disk chaos runs (%d vs %d bytes)", name, len(w), len(g))
				}
			}
			if cs, fs := clean.Summary(), faulty.Summary(); cs != fs {
				t.Errorf("summaries diverge:\nclean:\n%s\nchaos:\n%s", cs, fs)
			}
		})
	}
}
