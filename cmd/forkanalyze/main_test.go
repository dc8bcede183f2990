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
		_, rec, err := forkwatch.RunRecorded(sc)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := export.WriteTables(dir, rec.Blocks, rec.Txs, rec.Days); err != nil {
			t.Fatal(err)
		}
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
