package forkwatch_test

import (
	"fmt"
	"log"
	"os"

	"forkwatch"
)

// Example runs a miniature fork scenario end to end and reads one of the
// paper's statistics from the report.
func Example() {
	sc := forkwatch.NewScenario(1, 2) // seed 1, two days
	sc.DayLength = 3600               // compressed days keep the example fast
	sc.Users = 20
	sc.ETHTxPerDay = 10
	sc.ETCTxPerDay = 4

	rep, err := forkwatch.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("days observed:", rep.Collector.Days())
	// Output: days observed: 2
}

// ExampleRun is the quickstart: the calibrated ETH/ETC scenario for the
// first month after the fork, its summary against the paper's
// observations, and the Figure 1 extract around the partition moment.
func ExampleRun() {
	sc := forkwatch.NewScenario(1, 30) // seed 1, 30 days

	rep, err := forkwatch.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())

	// The default scenario's partitions are the historical pair: the
	// majority chain first, the minority second.
	maj, min := rep.Chains()[0], rep.Chains()[1]
	blocksPerHour, _, delta := rep.Figure1()
	majBlocks, minBlocks := blocksPerHour.Chain(maj), blocksPerHour.Chain(min)
	minDelta := delta.Chain(min)
	fmt.Printf("%6s %14s %14s %14s\n", "hour", maj+" blocks/hr", min+" blocks/hr", min+" delta (s)")
	for _, h := range []int{0, 3, 6, 12, 24, 36, 48, 72, 168} {
		fmt.Printf("%6d %14.0f %14.0f %14.0f\n", h, majBlocks[h], minBlocks[h], minDelta[h])
	}
	rec := rep.RecoveryHours()
	fmt.Printf("%s back at the target block rate after %d hours; %s after %d\n", min, rec[1], maj, rec[0])
	// Output:
	// forkwatch run: 30 days, seed 1, partitions ETH/ETC
	// O1/O2  ETC block rate first hours: 6/hr vs ETH 257/hr; max mean delta 1226s; ETC recovery at hour 39 (ETH 2)
	// O3     difficulty ETH 7.13e+13 -> 7.76e+13 (x1.1); ETC 2.26e+12 -> 8.15e+12; final ratio 9.5:1
	// O4     hashes/USD correlation ETH vs ETC: 0.8342
	// O5     echoes: 668 into ETH, 4186 into ETC; peak 68% of ETC daily txs; last-10-day mean 125.5/day
	// O6     top-5 pool share: ETH 0.63 -> 0.63; ETC 0.25 -> 0.22
	//   hour  ETH blocks/hr  ETC blocks/hr  ETC delta (s)
	//      0            255              6            589
	//      3            244              6            565
	//      6            291             10            376
	//     12            252             27            127
	//     24            258            187             19
	//     36            247            238             15
	//     48            254            344             10
	//     72            258            330             11
	//    168            281            293             12
	// ETC back at the target block rate after 39 hours; ETH after 2
}

// ExampleWriteFigureCSV shows the CSV shape cmd/forksim writes for every
// figure.
func ExampleWriteFigureCSV() {
	s := forkwatch.Series{
		Label:  "blocks/hour",
		Chains: []string{"ETH", "ETC"},
		Values: [][]float64{{257, 256}, {3, 8}},
	}
	if err := forkwatch.WriteFigureCSV(os.Stdout, s); err != nil {
		log.Fatal(err)
	}
	// Output:
	// index,eth_blocks/hour,etc_blocks/hour
	// 0,257,3
	// 1,256,8
}

// ExampleReport_Figure3 reads the market-efficiency statistic (the
// paper's headline from Figure 3) off a short run.
func ExampleReport_Figure3() {
	sc := forkwatch.NewScenario(7, 3)
	sc.DayLength = 3600
	sc.Users = 20
	sc.ETHTxPerDay = 10
	sc.ETCTxPerDay = 4
	rep, err := forkwatch.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	series, _ := rep.Figure3()
	fmt.Println("per-chain series lengths:", len(series.Chain("ETH")), len(series.Chain("ETC")))
	// Output: per-chain series lengths: 3 3
}
