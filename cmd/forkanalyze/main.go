// Command forkanalyze re-runs the paper's analysis over a previously
// exported ledger (the blocks.csv / txs.csv pair forksim writes) without
// re-simulating — the moral equivalent of the paper's database stage.
// Chain names are recovered from the export itself, so N-way exports
// analyze just like the historical pair.
//
// With -follow it instead attaches to a live forkserve archive and
// replays the measurement feed as it happens: the streaming analyzer
// feeds the same collector -dir uses, prints a rolling per-chain line at
// each day barrier, and — when the run publishes its EOF marker — prints
// the same figure summary and (with -out) writes CSV tables byte-identical
// to what a batch export of the same run would produce. -follow takes a
// comma-separated list of servers publishing the same feed; every read
// fails over between them, so the follower survives one of them dying.
//
// Usage:
//
//	forksim -days 270 -out results/
//	forkanalyze -dir results/
//	forkserve -days 3 -live &
//	forkanalyze -follow http://localhost:8545 -out results/
//	forkanalyze -follow http://hostA:8545,http://hostB:8545 -out results/
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"forkwatch/internal/analysis"
	"forkwatch/internal/export"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("forkanalyze: ")

	var (
		dir       = flag.String("dir", ".", "directory holding blocks.csv and txs.csv")
		epoch     = flag.Uint64("epoch", 1469020840, "fork unix time (day-0 anchor)")
		dayLength = flag.Uint64("daylen", 86_400, "seconds per simulated day in the export")
		follow    = flag.String("follow", "", "forkserve URL, or comma-separated URLs of servers publishing the same feed, to follow live instead of reading an export; reads fail over between them (base URL discovers a route via /readyz; include a /route to pin one)")
		out       = flag.String("out", "", "with -follow: directory to write the converged blocks.csv/txs.csv/days.csv into at EOF")
	)
	flag.Parse()

	if *follow != "" {
		if err := followLive(*follow, *out, *epoch); err != nil {
			log.Fatal(err)
		}
		return
	}

	if err := analyzeDir(os.Stdout, *dir, *epoch, *dayLength); err != nil {
		log.Fatal(err)
	}
}

// analyzeDir loads the export in dir, replays it through a collector and
// prints the figure summary to w.
func analyzeDir(w io.Writer, dir string, epoch, dayLength uint64) error {
	blocksF, err := os.Open(filepath.Join(dir, "blocks.csv"))
	if err != nil {
		return err
	}
	defer blocksF.Close()
	blocks, err := export.ReadBlocks(blocksF)
	if err != nil {
		return err
	}
	txsF, err := os.Open(filepath.Join(dir, "txs.csv"))
	if err != nil {
		return err
	}
	defer txsF.Close()
	txs, err := export.ReadTxs(txsF)
	if err != nil {
		return err
	}

	// The day table (prices) is optional; with it, Fig 3 reconstructs too.
	var dayRows []export.DayRow
	if daysF, err := os.Open(filepath.Join(dir, "days.csv")); err == nil {
		dayRows, err = export.ReadDays(daysF)
		daysF.Close()
		if err != nil {
			return err
		}
	}

	// ReplayAll sorts the blocks by time: take what reads the table's own
	// order first.
	chains := export.ChainOrder(blocks, dayRows)
	if len(chains) == 0 {
		return fmt.Errorf("export holds no blocks for any chain")
	}
	days := lastDay(blocks, epoch, dayLength) + 1
	col := analysis.NewCollector(epoch)
	export.ReplayAll(blocks, txs, dayRows, epoch, dayLength, col)

	fmt.Fprintf(w, "loaded %d blocks, %d transactions across %s\n\n",
		len(blocks), len(txs), strings.Join(chains, "/"))
	anchor := chains[0]
	for _, minority := range chains[1:] {
		fmt.Fprintf(w, "Fig 1  %s blocks/hr first 6h: %.1f;  max mean delta: %.0fs;  recovery hour: %d\n",
			minority,
			analysis.MeanOver(col.BlocksPerHour(minority), 0, 6),
			analysis.MaxOver(col.HourlyMeanDelta(minority), 0, 96),
			col.RecoveryHour(minority, 14, 0.9, 6))
	}
	anchorTx := analysis.MeanOver(col.TxPerDay(anchor), 0, days)
	for _, minority := range chains[1:] {
		minTx := analysis.MeanOver(col.TxPerDay(minority), 0, days)
		fmt.Fprintf(w, "Fig 2  tx/day %s %.0f, %s %.0f (ratio %.1f:1);  contract%% %s %.0f, %s %.0f\n",
			anchor, anchorTx, minority, minTx, safeRatio(anchorTx, minTx),
			anchor, analysis.MeanOver(col.PctContract(anchor), 0, days),
			minority, analysis.MeanOver(col.PctContract(minority), 0, days))
	}
	echoes := make([]string, len(chains))
	peak := chains[len(chains)-1]
	for i, c := range chains {
		echoes[i] = fmt.Sprintf("into %s: %d", c, col.TotalEchoes(c))
	}
	fmt.Fprintf(w, "Fig 4  echoes %s; peak %s echo share %.0f%%\n",
		strings.Join(echoes, "; "), peak,
		analysis.MaxOver(col.EchoPct(peak), 0, days))
	for _, c := range chains {
		t5 := col.TopNShare(c, 5)
		fmt.Fprintf(w, "Fig 5  top-5 pool share %s: mean %.2f; start %.2f -> end %.2f\n",
			c, analysis.MeanOver(t5, 0, days),
			analysis.MeanOver(t5, 0, 10), analysis.MeanOver(t5, days-10, days))
	}
	if len(dayRows) > 0 {
		for i := 0; i < len(chains); i++ {
			for j := i + 1; j < len(chains); j++ {
				fmt.Fprintf(w, "Fig 3  hashes/USD correlation %s vs %s: %.4f\n",
					chains[i], chains[j], col.PayoffCorrelation(analysis.RewardEther, chains[i], chains[j]))
			}
		}
	} else {
		fmt.Fprintln(w, "Fig 3  skipped: no days.csv in the export directory")
	}
	return nil
}

func lastDay(blocks []export.BlockRow, epoch, dayLength uint64) int {
	last := 0
	for _, b := range blocks {
		if b.Time >= epoch {
			if d := int((b.Time - epoch) / dayLength); d > last {
				last = d
			}
		}
	}
	return last
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
