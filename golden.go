package forkwatch

import (
	"bytes"
	"fmt"
	"sort"
)

// GoldenConfig names one canonical scenario whose figure CSVs are locked
// down by testdata/golden_twoway.json (regenerate with tools/goldengen).
// The set spans both ledger fidelities and the storage-fault machinery so
// a refactor cannot silently change behaviour in any of them.
type GoldenConfig struct {
	Name string
	// Full marks the scenario as full-fidelity (slower; golden_test skips
	// these under -short).
	Full     bool
	Scenario func() *Scenario
}

// GoldenConfigs returns the canonical two-way scenarios behind the golden
// regression test. Kept in the façade so tools/goldengen and golden_test
// build the exact same runs.
func GoldenConfigs() []GoldenConfig {
	return []GoldenConfig{
		{
			Name: "fast",
			Scenario: func() *Scenario {
				sc := NewScenario(3, 30)
				sc.Parallelism = 1
				return sc
			},
		},
		{
			Name: "full",
			Full: true,
			Scenario: func() *Scenario {
				sc := newGoldenFullScenario(7)
				return sc
			},
		},
		{
			Name: "full-faults",
			Full: true,
			Scenario: func() *Scenario {
				sc := newGoldenFullScenario(5)
				sc.StorageFaults = StorageFaults{
					Seed:          99,
					ReadErrRate:   0.20,
					WriteErrRate:  0.20,
					TornBatchRate: 0.002,
				}
				sc.Crashes = []CrashSpec{
					{Chain: "ETH", Day: 0, Block: 4, Op: 3},
					{Chain: "ETH", Day: 1, Block: 2, Op: 40},
					{Chain: "ETC", Day: 1, Block: 0, Op: 1},
				}
				return sc
			},
		},
	}
}

// newGoldenFullScenario is the shrunk full-fidelity scenario the byte-
// identity tests use: two short days, a small population, real blocks.
func newGoldenFullScenario(seed int64) *Scenario {
	sc := NewScenario(seed, 2)
	sc.Mode = ModeFull
	sc.DayLength = 3600
	sc.Users = 40
	sc.ETHTxPerDay = 30
	sc.ETCTxPerDay = 12
	sc.Parallelism = 1
	return sc
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
