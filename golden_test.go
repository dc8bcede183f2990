package forkwatch_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"forkwatch"
)

// update rewrites testdata/golden_twoway.json from the current code. Use
// it ONLY when figure output is meant to change (a calibration change, a
// new figure column); refactors must leave the digests untouched — that
// is the point of the golden file.
//
//	go test -run TestGoldenTwoWayFigures -update .
var update = flag.Bool("update", false, "rewrite testdata/golden_twoway.json from the current figures")

const goldenPath = "testdata/golden_twoway.json"

// goldenConfig names one canonical scenario whose figure CSVs are locked
// down by testdata/golden_twoway.json. The set spans both ledger
// fidelities and the storage-fault machinery so a refactor cannot
// silently change behaviour in any of them.
type goldenConfig struct {
	name string
	// full marks the scenario as full-fidelity (slower; skipped under
	// -short).
	full     bool
	scenario func() *forkwatch.Scenario
}

// goldenConfigs returns the canonical two-way scenarios behind the golden
// regression test.
func goldenConfigs() []goldenConfig {
	return []goldenConfig{
		{
			name: "fast",
			scenario: func() *forkwatch.Scenario {
				sc := forkwatch.NewScenario(3, 30)
				sc.Parallelism = 1
				return sc
			},
		},
		{
			name:     "full",
			full:     true,
			scenario: func() *forkwatch.Scenario { return newGoldenFullScenario(7) },
		},
		{
			name: "full-faults",
			full: true,
			scenario: func() *forkwatch.Scenario {
				sc := newGoldenFullScenario(5)
				sc.StorageFaults = forkwatch.StorageFaults{
					Seed:          99,
					ReadErrRate:   0.20,
					WriteErrRate:  0.20,
					TornBatchRate: 0.002,
				}
				sc.Crashes = []forkwatch.CrashSpec{
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
func newGoldenFullScenario(seed int64) *forkwatch.Scenario {
	sc := forkwatch.NewScenario(seed, 2)
	sc.Mode = forkwatch.ModeFull
	sc.DayLength = 3600
	sc.Users = 40
	sc.ETHTxPerDay = 30
	sc.ETCTxPerDay = 12
	sc.Parallelism = 1
	return sc
}

// loadGolden reads the locked-down digest table.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var digests map[string]string
	if err := json.Unmarshal(raw, &digests); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	if len(digests) == 0 {
		t.Fatal("golden file is empty")
	}
	return digests
}

// writeGolden writes the digest table in the file's layout: one sorted
// key per line, two-space indent, trailing newline.
func writeGolden(t *testing.T, digests map[string]string) {
	t.Helper()
	raw, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenTwoWayFigures locks the historical two-way run's figure CSVs
// to the digests captured before the N-way partition refactor: every
// canonical config, at Parallelism 1 and at Parallelism 0 (GOMAXPROCS),
// must reproduce the pre-refactor bytes exactly. Full-fidelity configs
// (including the storage-fault one) are skipped under -short. With
// -update it rewrites the file from the Parallelism 1 runs instead.
func TestGoldenTwoWayFigures(t *testing.T) {
	if *update {
		if testing.Short() {
			t.Fatal("-update needs every config; drop -short")
		}
		digests := map[string]string{}
		for _, gc := range goldenConfigs() {
			for name, data := range renderGolden(t, gc, 1) {
				digests[gc.name+"/"+name] = fmt.Sprintf("%x", sha256.Sum256(data))
			}
		}
		writeGolden(t, digests)
		t.Logf("rewrote %s (%d digests)", goldenPath, len(digests))
		return
	}
	golden := loadGolden(t)
	for _, gc := range goldenConfigs() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			if gc.full && testing.Short() {
				t.Skip("full-fidelity golden config skipped under -short")
			}
			for _, par := range []int{1, 0} {
				figs := renderGolden(t, gc, par)
				for name, data := range figs {
					key := gc.name + "/" + name
					want, ok := golden[key]
					if !ok {
						t.Errorf("figure %s missing from golden file", key)
						continue
					}
					if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
						t.Errorf("parallelism %d: %s drifted from the pre-refactor bytes: digest %s, want %s",
							par, key, got, want)
					}
				}
				// Every golden entry for this config must still be rendered.
				for key := range golden {
					if name, ok := strings.CutPrefix(key, gc.name+"/"); ok {
						if _, ok := figs[name]; !ok {
							t.Errorf("golden figure %s no longer rendered", key)
						}
					}
				}
			}
		})
	}
}

// renderGolden runs one golden config at the given parallelism and
// renders its figure CSVs.
func renderGolden(t *testing.T, gc goldenConfig, par int) map[string][]byte {
	t.Helper()
	sc := gc.scenario()
	sc.Parallelism = par
	rep, err := forkwatch.Run(sc)
	if err != nil {
		t.Fatalf("%s, parallelism %d: %v", gc.name, par, err)
	}
	figs, err := forkwatch.RenderFigures(rep)
	if err != nil {
		t.Fatalf("%s, parallelism %d: %v", gc.name, par, err)
	}
	return figs
}
