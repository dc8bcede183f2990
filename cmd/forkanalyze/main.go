// Command forkanalyze re-runs the paper's analysis over a previously
// exported ledger (the blocks.csv / txs.csv / days.csv tables forksim
// writes) without re-simulating — the moral equivalent of the paper's
// database stage. It replays the tables in the engine's delivery order
// (day, then partition, then block number) and prints the same O1–O6
// lines forksim printed for the run (forkwatch.Observations). Chain names
// and their partition order are recovered from the export itself, so
// N-way exports analyze just like the historical pair.
//
// With -follow it instead attaches to a live forkserve archive and
// replays the measurement feed as it happens: the streaming analyzer
// prints a rolling per-chain line at each day barrier, and — when the run
// publishes its EOF marker — prints the run's O1–O6 lines from a collector
// fed the same events, and (with -out) writes CSV tables byte-identical
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

	"forkwatch"
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

// analyzeDir replays the export in dir through a collector in the
// engine's delivery order and prints the run's O1–O6 lines to w.
func analyzeDir(w io.Writer, dir string, epoch, dayLength uint64) error {
	blocks, err := os.Open(filepath.Join(dir, "blocks.csv"))
	if err != nil {
		return err
	}
	defer blocks.Close()
	txs, err := os.Open(filepath.Join(dir, "txs.csv"))
	if err != nil {
		return err
	}
	defer txs.Close()
	// The day table (prices) is optional; with it, Fig 3 reconstructs too.
	var days io.Reader
	if f, err := os.Open(filepath.Join(dir, "days.csv")); err == nil {
		defer f.Close()
		days = f
	}

	col := analysis.NewCollector(epoch)
	if err := export.ReplayTables(blocks, txs, days, epoch, dayLength, col); err != nil {
		return err
	}
	chains := col.Chains()
	if len(chains) == 0 {
		return fmt.Errorf("export holds no blocks for any chain")
	}
	nb, nt := 0, 0
	for _, c := range chains {
		for _, d := range col.Daily(c) {
			nb, nt = nb+d.Blocks, nt+d.Txs
		}
	}
	fmt.Fprintf(w, "loaded %d blocks, %d transactions across %s\n", nb, nt, strings.Join(chains, "/"))
	if days == nil {
		fmt.Fprintln(w, "no days.csv in the export directory: O4 has no prices to correlate")
	}
	fmt.Fprint(w, forkwatch.Observations(col, chains))
	return nil
}
