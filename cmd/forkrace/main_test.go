package main

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestE3TableGolden pins forkrace's printed E3 sweep at -runs 50 -seed 1.
// A deliberate model change regenerates the file with
//
//	go run ./cmd/forkrace -runs 50 -seed 1 > cmd/forkrace/testdata/e3_runs50_seed1.txt
//
// The test also holds the two calibration cells to the paper's §2.1
// contrast within a factor of two: a 20 % laggard noticing after ~2 h
// (ETH's 86-block fork) and a 30 % laggard lagging for most of a day
// (ETC's 3,583-block fork).
func TestE3TableGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, 50, 1); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/e3_runs50_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("forkrace output drifted from testdata/e3_runs50_seed1.txt:\n%s", buf.Bytes())
	}

	for _, c := range []struct {
		share  string
		column int // 1-based notice column: 0.5h, 2h, 8h, 20h
		paper  float64
	}{
		{"20%", 2, 86},
		{"30%", 4, 3583},
	} {
		got := cell(t, buf.String(), c.share, c.column)
		if got < c.paper/2 || got > c.paper*2 {
			t.Errorf("%s laggard, notice column %d: %.0f blocks, want within x1/2..x2 of the paper's %.0f",
				c.share, c.column, got, c.paper)
		}
	}
}

// cell reads one value of the printed table: the row labelled share, the
// given notice column.
func cell(t *testing.T, table, share string, column int) float64 {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 5 && fields[0] == share {
			v, err := strconv.ParseFloat(fields[column], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("no %s row in the table", share)
	return 0
}
