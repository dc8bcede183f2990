package forkwatch

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"forkwatch/internal/analysis"
	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/export"
	"forkwatch/internal/sim"
)

// sameFigures requires every RenderFigures CSV of got to equal want's
// byte for byte.
func sameFigures(t *testing.T, want, got *Report) {
	t.Helper()
	w, err := RenderFigures(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := RenderFigures(got)
	if err != nil {
		t.Fatal(err)
	}
	for name, wb := range w {
		if gb := g[name]; !bytes.Equal(wb, gb) {
			t.Errorf("%s differs:\nrun:\n%s\nreplayed:\n%s", name, wb, gb)
		}
	}
}

// writeTables writes a Recorder's rows as the three tables into dir.
func writeTables(t *testing.T, dir string, rec *export.Recorder) {
	t.Helper()
	for name, write := range map[string]func(io.Writer) error{
		"blocks.csv": func(w io.Writer) error { return export.WriteBlocks(w, rec.Blocks) },
		"txs.csv":    func(w io.Writer) error { return export.WriteTxs(w, rec.Txs) },
		"days.csv":   func(w io.Writer) error { return export.WriteDays(w, rec.Days) },
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// replayDir replays the tables in dir into a collector.
func replayDir(t *testing.T, dir string, sc *Scenario) *analysis.Collector {
	t.Helper()
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	col := analysis.NewCollector(sc.Epoch)
	if err := export.ReplayTables(open("blocks.csv"), open("txs.csv"), open("days.csv"), sc.Epoch, sc.DayLength, col); err != nil {
		t.Fatal(err)
	}
	return col
}

// TestReplayedExportReadsAsTheRun: a run's own export, written and
// replayed, yields every figure CSV and every O1–O6 line of the run
// byte for byte — the contract forkanalyze -dir rests on. Echo detection
// is first-seen across chains, so this holds only if the replay delivers
// blocks in the engine's order (day, partition, number); a replay by
// timestamp attributes some same-day echoes to the other chain.
func TestReplayedExportReadsAsTheRun(t *testing.T) {
	for _, days := range []int{30, 90} {
		t.Run(fmt.Sprintf("%dd", days), func(t *testing.T) {
			sc := NewScenario(1, days)
			rep, rec, err := RunRecorded(sc)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			writeTables(t, dir, rec)
			col := replayDir(t, dir, sc)
			sameFigures(t, rep, &Report{Scenario: sc, Collector: col})
			want := Observations(rep.Collector, rep.Chains())
			if got := Observations(col, col.Chains()); got != want {
				t.Errorf("O1–O6 lines differ:\nrun:\n%s\nreplayed:\n%s", want, got)
			}
		})
	}
}

// TestFullModeKVRoundTrip is the persistence acceptance test: a ModeFull
// run whose ledgers live in the KV store is exported with WriteChain,
// re-imported into fresh stores with ImportChain and reopened from those
// stores with chain.Open. Replaying the reopened chains
// (export.ReplayChains) gives the live run's Recorder rows, row for row,
// and those rows with the run's day table replay into every figure of the
// live run, byte for byte.
func TestFullModeKVRoundTrip(t *testing.T) {
	sc := NewScenario(7, 2)
	sc.Mode = ModeFull
	sc.DayLength = 3600
	sc.Users = 30
	sc.ETHTxPerDay = 25
	sc.ETCTxPerDay = 10
	sc.Storage = StorageConfig{Backend: StorageDisk, DataDir: t.TempDir()}

	eng, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	col := analysis.NewCollector(sc.Epoch)
	rec := &export.Recorder{}
	eng.AddObserver(col)
	eng.AddObserver(rec)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	live := &Report{Scenario: sc, Collector: col}

	stats := eng.StorageStats()
	if stats.Writes == 0 || stats.Reads == 0 {
		t.Fatalf("expected storage traffic, got %+v", stats)
	}
	if stats.Hits == 0 {
		t.Fatalf("disk backend saw no hits: %+v", stats)
	}

	// Snapshot each partition, re-import into a brand-new store, and read
	// the rows back from a chain reopened over that store rather than the
	// one that imported them.
	reopen := func(name string, led sim.Ledger) *chain.Blockchain {
		fl, ok := led.(*sim.FullLedger)
		if !ok {
			t.Fatalf("%s: not a full ledger", name)
		}
		var buf bytes.Buffer
		if err := fl.BC.WriteChain(&buf); err != nil {
			t.Fatalf("%s: WriteChain: %v", name, err)
		}
		kv := db.NewMemDB()
		fresh, err := chain.NewBlockchainWithDB(fl.BC.Config(), eng.Workload.Genesis(), kv)
		if err != nil {
			t.Fatalf("%s: fresh chain: %v", name, err)
		}
		n, err := fresh.ImportChain(&buf)
		if err != nil {
			t.Fatalf("%s: ImportChain after %d blocks: %v", name, n, err)
		}
		if got, want := fresh.Head().Number(), fl.BC.Head().Number(); got != want {
			t.Fatalf("%s: reimported head %d, want %d", name, got, want)
		}
		reopened, err := chain.Open(fl.BC.Config(), kv)
		if err != nil {
			t.Fatalf("%s: reopening the imported store: %v", name, err)
		}
		// The reopened view and the live run's view must agree on the
		// canonical block hashes.
		head := fl.BC.Head().Number()
		reopenedCanon, liveCanon := reopened.CanonicalBlocks(1, head), fl.BC.CanonicalBlocks(1, head)
		if len(reopenedCanon) != len(liveCanon) {
			t.Fatalf("%s: reopened chain has %d canonical blocks, live %d", name, len(reopenedCanon), len(liveCanon))
		}
		for i := range liveCanon {
			if reopenedCanon[i].Hash() != liveCanon[i].Hash() {
				t.Fatalf("%s: canonical block %d is %s reopened, %s live", name, i+1, reopenedCanon[i].Hash().Hex(), liveCanon[i].Hash().Hex())
			}
		}
		return reopened
	}
	names := []string{"ETH", "ETC"}
	chains := []*chain.Blockchain{reopen("ETH", eng.Ledger("ETH")), reopen("ETC", eng.Ledger("ETC"))}
	got := &export.Recorder{}
	if err := export.ReplayChains(names, chains, sc.Epoch, sc.DayLength, got); err != nil {
		t.Fatal(err)
	}
	if len(got.Blocks) != len(rec.Blocks) || len(got.Txs) != len(rec.Txs) {
		t.Fatalf("reopened chains replay %d blocks/%d txs, the run recorded %d/%d",
			len(got.Blocks), len(got.Txs), len(rec.Blocks), len(rec.Txs))
	}
	for i := range rec.Blocks {
		if got.Blocks[i] != rec.Blocks[i] {
			t.Fatalf("block row %d differs: reopened %+v, live %+v", i, got.Blocks[i], rec.Blocks[i])
		}
	}
	for i := range rec.Txs {
		if got.Txs[i] != rec.Txs[i] {
			t.Fatalf("tx row %d differs: reopened %+v, live %+v", i, got.Txs[i], rec.Txs[i])
		}
	}

	got.Days = rec.Days
	dir := t.TempDir()
	writeTables(t, dir, got)
	col2 := replayDir(t, dir, sc)
	sameFigures(t, live, &Report{Scenario: sc, Collector: col2})
}
