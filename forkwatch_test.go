package forkwatch_test

import (
	"strings"
	"testing"

	"forkwatch"
)

// shortScenario keeps API tests fast: 1-hour days, small population.
func shortScenario(seed int64, days int) *forkwatch.Scenario {
	sc := forkwatch.NewScenario(seed, days)
	sc.DayLength = 3600
	sc.Users = 40
	sc.ETHTxPerDay = 30
	sc.ETCTxPerDay = 12
	return sc
}

func TestRunProducesReport(t *testing.T) {
	rep, err := forkwatch.Run(shortScenario(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collector.Days() != 3 {
		t.Fatalf("days = %d", rep.Collector.Days())
	}

	bph, diff, delta := rep.Figure1()
	if len(bph.Chain("ETH")) == 0 || len(diff.Chain("ETC")) == 0 || len(delta.Chain("ETC")) == 0 {
		t.Error("figure 1 series empty")
	}
	d2, tx, pct := rep.Figure2()
	if len(d2.Chain("ETH")) != 3 || len(tx.Chain("ETH")) != 3 || len(pct.Chain("ETC")) != 3 {
		t.Error("figure 2 series wrong length")
	}
	hpu, corr := rep.Figure3()
	if len(hpu.Chain("ETH")) != 3 {
		t.Error("figure 3 series wrong length")
	}
	if corr != corr && rep.Collector.Days() > 2 { // NaN check tolerated only for tiny runs
		t.Log("correlation NaN on tiny run (expected)")
	}
	echoPct, echoes := rep.Figure4()
	if len(echoPct.Chain("ETC")) != 3 || len(echoes.Chain("ETC")) != 3 {
		t.Error("figure 4 series wrong length")
	}
	fig5 := rep.Figure5()
	for _, n := range []int{1, 3, 5} {
		if len(fig5[n].Chain("ETH")) != 3 {
			t.Errorf("figure 5 top-%d series wrong length", n)
		}
	}
}

func TestSummaryMentionsObservations(t *testing.T) {
	rep, err := forkwatch.Run(shortScenario(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, key := range []string{"O1", "O3", "O4", "O5", "O6", "echoes", "difficulty"} {
		if !strings.Contains(s, key) {
			t.Errorf("summary missing %q:\n%s", key, s)
		}
	}
}

func TestRunRecorded(t *testing.T) {
	rep, rec, err := forkwatch.RunRecorded(shortScenario(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Blocks) == 0 {
		t.Error("recorder captured no blocks")
	}
	// Block totals agree between the recorder and the collector.
	blockSum := 0
	for _, s := range rep.Collector.BlocksPerHour("ETH") {
		blockSum += int(s)
	}
	for _, s := range rep.Collector.BlocksPerHour("ETC") {
		blockSum += int(s)
	}
	if blockSum != len(rec.Blocks) {
		t.Errorf("collector saw %d blocks, recorder %d", blockSum, len(rec.Blocks))
	}
}

func TestWriteFigureCSV(t *testing.T) {
	var sb strings.Builder
	s := forkwatch.Series{Label: "x", Chains: []string{"ETH", "ETC"}, Values: [][]float64{{1, 2}, {3}}}
	if err := forkwatch.WriteFigureCSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "index,eth_x,etc_x\n0,1,3\n1,2,0\n"
	if got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	r1, err := forkwatch.Run(shortScenario(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := forkwatch.Run(shortScenario(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Summary() != r2.Summary() {
		t.Error("same seed produced different summaries")
	}
}

// TestExtremePoolCap is `forksim -days 30 -partitions
// 'ETH;ETC:share=0.2,cap=1e-300,churn=0.5'`: a cap that underflows every
// attachment propensity used to turn ETC's pool weights NaN, and O6
// printed "ETC 1.00 -> 1.00". The top-5 series must stay a share.
func TestExtremePoolCap(t *testing.T) {
	sc := forkwatch.NewScenario(1, 30)
	var err error
	if sc.Partitions, err = forkwatch.ParsePartitionSpecs("ETH;ETC:share=0.2,cap=1e-300,churn=0.5"); err != nil {
		t.Fatal(err)
	}
	rep, err := forkwatch.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Summary(); strings.Contains(s, "ETC 1.00 -> 1.00") {
		t.Errorf("O6 collapsed:\n%s", s)
	}
	for day, v := range rep.Figure5()[5].Chain("ETC") {
		if !(v > 0 && v < 0.5) {
			t.Fatalf("ETC top-5 share on day %d = %v", day, v)
		}
	}
}
