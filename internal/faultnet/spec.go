package faultnet

import (
	"fmt"
	"math"

	"forkwatch/internal/spec"
)

// knobs declares the fault plan's keys.
var knobs = []spec.Knob{
	{Keys: "seed", Field: "Seed"},
	{Keys: "latency", Field: "Latency"},
	{Keys: "jitter", Field: "Jitter"},
	{Keys: "drop", Field: "DropRate", Max: 1},
	{Keys: "corrupt", Field: "CorruptRate", Max: 1},
	{Keys: "reset", Field: "ResetRate", Max: 1},
	{Keys: "bw", Field: "BandwidthBps", Max: math.Inf(1)},
	{Keys: "stall", Field: "StallWrites", Max: math.Inf(1)},
}

// ParseSpec parses a comma-separated key=value fault specification, the
// format behind cmd/forknode's -faults flag:
//
//	seed=42,latency=20ms,jitter=200ms,drop=0.2,corrupt=0.01,reset=0.001,bw=1048576,stall=0
//
// Keys: seed (int), latency/jitter (non-negative durations),
// drop/corrupt/reset (probabilities in [0,1]), bw (bytes per second,
// 0 = unlimited), stall (frames before a slow-loris stall, 0 = never).
// Unknown keys are rejected.
func ParseSpec(s string) (Faults, error) {
	var f Faults
	if err := spec.Parse(&f, knobs, s); err != nil {
		return Faults{}, fmt.Errorf("faultnet: %w", err)
	}
	return f, nil
}

// Enabled reports whether the plan injects any fault at all.
func (f Faults) Enabled() bool {
	return f.Latency > 0 || f.Jitter > 0 || f.DropRate > 0 || f.CorruptRate > 0 ||
		f.ResetRate > 0 || f.BandwidthBps > 0 || f.StallWrites > 0
}

// String summarises the plan for logs.
func (f Faults) String() string {
	return fmt.Sprintf("seed=%d latency=%v jitter=%v drop=%.3f corrupt=%.3f reset=%.4f bw=%dB/s stall=%d",
		f.Seed, f.Latency, f.Jitter, f.DropRate, f.CorruptRate, f.ResetRate, f.BandwidthBps, f.StallWrites)
}
