package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × metric row.
const (
	vBetter     = "better"
	vSame       = "same"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// rangeSpread is the widest distance between a file's own runs of one
// metric, as a share of their median.
func rangeSpread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	lo, hi := minMax(xs)
	return (hi - lo) / med
}

// judge compares the medians of two sets of runs of one metric against
// its bound. A row is unresolved, not same, when either side's own runs
// spread wider than the bound: the comparison cannot tell a change that
// small from noise.
func judge(def metricDef, base, next []float64) (change float64, verdict string) {
	b, n := median(base), median(next)
	if b == 0 {
		return 0, vUnresolved
	}
	change = (n - b) / b // positive = the number grew
	worsening := change
	if def.Better == higher {
		worsening = -change
	}
	switch {
	case max(rangeSpread(base), rangeSpread(next)) > def.Bound:
		return change, vUnresolved
	case worsening > def.Bound:
		return change, vWorse
	case worsening < -def.Bound:
		return change, vBetter
	}
	return change, vSame
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload × end-to-end metric and
// returns an error when any row is worse or any workload fails more ops.
func compareFiles(w io.Writer, basePath, nextPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	next, err := readResults(nextPath)
	if err != nil {
		return err
	}
	if base.Seconds != next.Seconds || base.Seed != next.Seed || base.Quick != next.Quick {
		fmt.Fprintf(w, "# warning: settings differ: seed %d/%d, seconds %g/%g, quick %v/%v\n",
			base.Seed, next.Seed, base.Seconds, next.Seconds, base.Quick, next.Quick)
	}
	fmt.Fprintf(w, "# base %s (%s), new %s (%s)\n", basePath, base.Host.Commit, nextPath, next.Host.Commit)
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	bad := 0
	for _, wl := range workloads {
		b, okB := base.Workloads[wl.Name]
		n, okN := next.Workloads[wl.Name]
		if !okB || !okN {
			fmt.Fprintf(w, "%-20s missing from one file\n", wl.Name)
			bad++
			continue
		}
		if rb, rn := len(b.EndToEnd["setup_s"]), len(n.EndToEnd["setup_s"]); rb != rn {
			fmt.Fprintf(w, "# warning: %s: %d runs in the base, %d in the new file\n", wl.Name, rb, rn)
		}
		for _, def := range endToEnd {
			change, verdict := judge(def, b.EndToEnd[def.Name], n.EndToEnd[def.Name])
			if verdict == vWorse {
				bad++
			}
			fmt.Fprintf(w, "%-20s %-14s %14.6g %14.6g %9.4f %5.0f%%  %s\n", wl.Name, def.Name,
				median(b.EndToEnd[def.Name]), median(n.EndToEnd[def.Name]), 1+change, 100*def.Bound, verdict)
		}
		fb, fn := failRatio(b), failRatio(n)
		verdict := vSame
		if fn > fb {
			verdict = vWorse
			bad++
		}
		fmt.Fprintf(w, "%-20s %-14s %14.6g %14.6g %9s %6s  %s\n", wl.Name, "fail_ratio", fb, fn, "-", "0%", verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse", bad)
	}
	return nil
}

func failRatio(r workloadResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}
