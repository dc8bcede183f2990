package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
// An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// unit is one stretch of the measured section, kept as context beside the
// run's numbers: a whole-pipeline rep (one op), or a second of requests.
type unit struct {
	ops    int           // ops answered correctly
	dur    time.Duration // wall time of the unit
	cpu    time.Duration // process CPU time over the unit
	opMs   float64       // median op time within the unit
	p99Ms  float64       // 99th percentile within the unit; 0 below minP99Samples ops
	traced bool
}

// minP99Samples is the fewest ops a unit needs for its p99 to have ten
// samples beyond it.
const minP99Samples = 1000

// latencyUnit summarises one second of requests from their latencies in
// milliseconds.
func latencyUnit(lat []float64, dur, cpu time.Duration, traced bool) unit {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	u := unit{ops: len(s), dur: dur, cpu: cpu, opMs: percentileSorted(s, 0.5), traced: traced}
	if len(s) >= minP99Samples {
		u.p99Ms = percentileSorted(s, 0.99)
	}
	return u
}

// repMedians reduces whole-pipeline reps, one op each, to the median rep:
// its wall time, its rate and its process CPU time.
func repMedians(reps []unit) (opMs, opsPerS, cpuMsPerOp float64) {
	var wall, rate, cpu []float64
	for _, u := range reps {
		wall = append(wall, u.opMs)
		rate = append(rate, 1/u.dur.Seconds())
		cpu = append(cpu, ms(u.cpu))
	}
	return median(wall), median(rate), median(cpu)
}

// rates reduces seconds of requests to the whole stretch they cover: ops
// answered correctly per second of wall time, and process CPU time per op.
func rates(units []unit) (opsPerS, cpuMsPerOp float64) {
	var ops int
	var dur, cpu time.Duration
	for _, u := range units {
		ops += u.ops
		dur += u.dur
		cpu += u.cpu
	}
	if ops == 0 || dur == 0 {
		return 0, 0
	}
	return float64(ops) / dur.Seconds(), ms(cpu) / float64(ops)
}

// tailMs is the run's tail latency in milliseconds: the median of the
// units' p99s, so that one GC or scheduler hiccup moves one unit and not
// the metric. Units too small for a p99 are left out.
func tailMs(units []unit) float64 {
	var p99s []float64
	for _, u := range units {
		if u.p99Ms > 0 {
			p99s = append(p99s, u.p99Ms)
		}
	}
	return median(p99s)
}
