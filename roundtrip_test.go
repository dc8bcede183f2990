package forkwatch

import (
	"bytes"
	"fmt"
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

// readTables reads back the three tables export.WriteTables wrote to dir.
func readTables(t *testing.T, dir string) ([]export.BlockRow, []export.TxRow, []export.DayRow) {
	t.Helper()
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	blocks, err := export.ReadBlocks(open("blocks.csv"))
	if err != nil {
		t.Fatal(err)
	}
	txs, err := export.ReadTxs(open("txs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	days, err := export.ReadDays(open("days.csv"))
	if err != nil {
		t.Fatal(err)
	}
	return blocks, txs, days
}

// TestReplayedExportReadsAsTheRun: a run's own export, written, read back
// and replayed, yields every figure CSV and every O1–O6 line of the run
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
			if err := export.WriteTables(dir, rec.Blocks, rec.Txs, rec.Days); err != nil {
				t.Fatal(err)
			}

			blocks, txs, dayRows := readTables(t, dir)
			col := analysis.NewCollector(sc.Epoch)
			export.ReplayAll(blocks, txs, dayRows, sc.Epoch, sc.DayLength, col)
			sameFigures(t, rep, &Report{Scenario: sc, Collector: col})
			want := Observations(rep.Collector, rep.Chains())
			if got := Observations(col, export.ChainOrder(blocks, dayRows)); got != want {
				t.Errorf("O1–O6 lines differ:\nrun:\n%s\nreplayed:\n%s", want, got)
			}
		})
	}
}

// TestFullModeKVRoundTrip is the persistence acceptance test: a ModeFull
// run whose ledgers live in the KV store is exported with WriteChain,
// re-imported into fresh stores with ImportChain, reopened from those
// stores with chain.Open, read back via export.FromBlockchain, and
// replayed into a second collector.
// Every figure of the reconstructed report must equal the live run's
// byte-for-byte.
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
	reload := func(name string, led sim.Ledger) ([]export.BlockRow, []export.TxRow) {
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
		blocks, txs, err := export.FromBlockchain(name, reopened)
		if err != nil {
			t.Fatalf("%s: exporting the reopened chain: %v", name, err)
		}
		// The reopened view and the live run's view must agree: the same
		// canonical block hashes, and the same rows.
		liveBlocks, liveTxs, err := export.FromBlockchain(name, fl.BC)
		if err != nil {
			t.Fatalf("%s: exporting the live chain: %v", name, err)
		}
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
		if len(blocks) != len(liveBlocks) || len(txs) != len(liveTxs) {
			t.Fatalf("%s: reopened view %d blocks/%d txs, live view %d/%d",
				name, len(blocks), len(txs), len(liveBlocks), len(liveTxs))
		}
		for i := range blocks {
			if blocks[i] != liveBlocks[i] {
				t.Fatalf("%s: block row %d differs: reopened %+v, live %+v", name, i, blocks[i], liveBlocks[i])
			}
		}
		for i := range txs {
			if txs[i] != liveTxs[i] {
				t.Fatalf("%s: tx row %d differs: reopened %+v, live %+v", name, i, txs[i], liveTxs[i])
			}
		}
		return blocks, txs
	}
	ethBlocks, ethTxs := reload("ETH", eng.Ledger("ETH"))
	etcBlocks, etcTxs := reload("ETC", eng.Ledger("ETC"))

	col2 := analysis.NewCollector(sc.Epoch)
	export.ReplayAll(
		append(ethBlocks, etcBlocks...),
		append(ethTxs, etcTxs...),
		rec.Days, sc.Epoch, sc.DayLength, col2)
	replayed := &Report{Scenario: sc, Collector: col2}

	sameFigures(t, live, replayed)
}
