// Command forkrace runs experiment E3: the transient-fork race model
// behind the paper's §2.1 contrast — ETH's November 2016 protocol-upgrade
// fork resolved after 86 blocks while ETC's January 2017 fork lasted
// 3,583. It sweeps the laggard hashrate share and reaction time and
// prints the mean losing-branch length for each combination.
//
//	forkrace -runs 200
//
// main_test.go pins the table printed by -runs 50 -seed 1
// (testdata/e3_runs50_seed1.txt).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"forkwatch/internal/chain"
	"forkwatch/internal/sim"
)

func main() {
	log.SetFlags(0)
	var (
		runs = flag.Int("runs", 100, "simulated forks per parameter combination")
		seed = flag.Int64("seed", 1, "rng seed")
	)
	flag.Parse()
	if err := run(os.Stdout, *runs, *seed); err != nil {
		log.Fatal(err)
	}
}

// run prints the E3 sweep: the mean losing-branch length over runs forks
// per (laggard share, notice time) cell, all drawn from one seeded stream.
// It returns the first write error.
func run(out io.Writer, runs int, seed int64) error {
	w := bufio.NewWriter(out)
	cfg := chain.MainnetLikeConfig()
	r := rand.New(rand.NewSource(seed))

	shares := []float64{0.01, 0.05, 0.2, 0.3}
	notices := []float64{0.5, 2, 8, 20} // hours

	fmt.Fprintf(w, "mean losing-branch length (blocks) over %d runs\n\n", runs)
	fmt.Fprintf(w, "%22s", "laggard share \\ notice")
	for _, h := range notices {
		fmt.Fprintf(w, "%10.1fh", h)
	}
	fmt.Fprintln(w)
	for _, share := range shares {
		fmt.Fprintf(w, "%21.0f%%", share*100)
		for _, h := range notices {
			race := &sim.ForkRace{
				Config:            cfg,
				TotalHashrate:     5e12,
				MinorityShare:     share,
				NoticeMeanSeconds: h * 3600,
			}
			fmt.Fprintf(w, "%11.0f", race.RunMean(runs, r))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "paper calibration points: ETH Nov-2016 fork ≈ 86 blocks (large network,")
	fmt.Fprintln(w, "fast reaction), ETC Jan-2017 fork ≈ 3,583 blocks (small network, a large")
	fmt.Fprintln(w, "pool lagging for most of a day).")
	return w.Flush()
}
