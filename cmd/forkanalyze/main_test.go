package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"forkwatch"
	"forkwatch/internal/export"
)

// exportRun runs sc with its tables streamed into a fresh directory, as
// forksim -out writes them, and returns the directory.
func exportRun(t *testing.T, sc *forkwatch.Scenario) string {
	t.Helper()
	eng, err := forkwatch.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tables, err := export.NewTables(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.AddObserver(tables)
	if err := eng.Run(); err != nil {
		tables.Abort()
		t.Fatal(err)
	}
	if err := tables.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestAnalyzeDirChainOrderWithoutDays: an export without days.csv names
// its chains in the order the block table first lists them, which is the
// engine's partition order, so the first partition stays the anchor of
// the O1–O6 lines and MIN is reported against it. In an even split the
// second partition often mines the earliest block; an order read off the
// timestamps would name it the anchor instead.
func TestAnalyzeDirChainOrderWithoutDays(t *testing.T) {
	specs, err := forkwatch.ParsePartitionSpecs("MAJ:share=0.5,weight=0.5;MIN:share=0.5,weight=0.5")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 3, 6} {
		sc := forkwatch.NewScenario(seed, 2)
		sc.Partitions = specs
		dir := exportRun(t, sc)
		if err := os.Remove(filepath.Join(dir, "days.csv")); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := analyzeDir(&out, dir, sc.Epoch, sc.DayLength); err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(out.String(), "\n")
		if !strings.HasSuffix(first, " across MAJ/MIN") {
			t.Errorf("seed %d: %q, want the chains in partition order MAJ/MIN", seed, first)
		}
		if !strings.Contains(out.String(), "\nO1/O2  MIN block rate first hours: ") {
			t.Errorf("seed %d: MIN is not reported as the minority:\n%s", seed, out.String())
		}
	}
}

// TestAnalyzeDirRejectsMisreadExports: a day length of 0, an epoch after
// the first block, or an epoch so early that the blocks fall past the day
// table are errors, not a panic or O1–O6 lines over dropped blocks.
func TestAnalyzeDirRejectsMisreadExports(t *testing.T) {
	sc := forkwatch.NewScenario(1, 3)
	dir := exportRun(t, sc)
	for _, tc := range []struct {
		name             string
		epoch, dayLength uint64
		want             []string
	}{
		{"zero day length", sc.Epoch, 0, []string{"day length is 0"}},
		{"epoch after the blocks", sc.Epoch + 2*sc.DayLength, sc.DayLength,
			[]string{"block row 1 (ETH block 1): time ", " is before the epoch 1469193640"}},
		{"epoch before the day table", sc.Epoch - 5*sc.DayLength, sc.DayLength,
			[]string{"block row 1 (ETH block 1): on day 5, past the day table's last day 2"}},
	} {
		var out bytes.Buffer
		err := analyzeDir(&out, dir, tc.epoch, tc.dayLength)
		for _, want := range tc.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: analyzeDir = %v, want an error containing %q", tc.name, err, want)
			}
		}
		if out.Len() > 0 {
			t.Errorf("%s: printed %q before failing", tc.name, out.String())
		}
	}
}
