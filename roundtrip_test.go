package forkwatch

import (
	"bytes"
	"fmt"
	"testing"

	"forkwatch/internal/analysis"
	"forkwatch/internal/chain"
	"forkwatch/internal/db"
	"forkwatch/internal/export"
	"forkwatch/internal/sim"
)

// figureCSVs renders every figure of a report to CSV bytes, keyed by name,
// so two reports can be compared byte-for-byte.
func figureCSVs(t *testing.T, rep *Report) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	add := func(name string, s Series) {
		var buf bytes.Buffer
		if err := WriteFigureCSV(&buf, s); err != nil {
			t.Fatalf("rendering %s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	bph, diffH, deltaH := rep.Figure1()
	add("fig1_blocks_per_hour", bph)
	add("fig1_difficulty", diffH)
	add("fig1_delta", deltaH)
	diffD, txD, pctC := rep.Figure2()
	add("fig2_difficulty", diffD)
	add("fig2_tx_per_day", txD)
	add("fig2_pct_contract", pctC)
	hpu, _ := rep.Figure3()
	add("fig3_hashes_per_usd", hpu)
	echoPct, echoes := rep.Figure4()
	add("fig4_echo_pct", echoPct)
	add("fig4_echoes_per_day", echoes)
	for n, s := range rep.Figure5() {
		add(fmt.Sprintf("fig5_top%d", n), s)
	}
	return out
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

	want := figureCSVs(t, live)
	got := figureCSVs(t, replayed)
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("replayed report missing %s", name)
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s differs after round trip:\nlive:\n%s\nreplayed:\n%s", name, w, g)
		}
	}
}
