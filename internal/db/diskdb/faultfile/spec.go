package faultfile

import (
	"fmt"
	"math"

	"forkwatch/internal/spec"
)

// knobs declares the storage-fault plan's keys; torn is listed twice
// because it sets two rates.
var knobs = []spec.Knob{
	{Keys: "seed", Field: "Seed"},
	{Keys: "readerr", Field: "ReadErrRate", Max: 1},
	{Keys: "writeerr", Field: "WriteErrRate", Max: 1},
	{Keys: "torn", Field: "ShortWriteRate", Max: 1},
	{Keys: "torn", Field: "TornWriteRate", Max: 1},
	{Keys: "corrupt", Field: "CorruptRate", Max: 1},
	{Keys: "stallevery", Field: "StallEvery", Max: math.Inf(1)},
	{Keys: "stall", Field: "Stall"},
}

// ParseSpec parses a comma-separated key=value storage-fault
// specification, the format behind the -storage-faults flag:
//
//	seed=42,readerr=0.2,writeerr=0.2,torn=0.01,corrupt=0.001,stallevery=1000,stall=1ms
//
// Keys: seed (int), readerr/writeerr/torn/corrupt (probabilities in
// [0,1]), stallevery (operations between stalls, 0 = never), stall
// (duration); neither stall value may be negative. torn sets both the
// short-write and the torn-write rate: an append that tears may leave a
// repairable prefix or kill the medium. Unknown keys are rejected.
func ParseSpec(s string) (Faults, error) {
	var f Faults
	if err := spec.Parse(&f, knobs, s); err != nil {
		return Faults{}, fmt.Errorf("faultfile: %w", err)
	}
	return f, nil
}

// Validate checks a plan, parsed or built in Go, against the bounds
// ParseSpec enforces.
func (f Faults) Validate() error {
	return spec.Check(f, knobs)
}

// String summarises the plan for logs.
func (f Faults) String() string {
	return fmt.Sprintf("seed=%d readerr=%.3f writeerr=%.3f short=%.4f torn=%.4f corrupt=%.4f stallevery=%d stall=%v",
		f.Seed, f.ReadErrRate, f.WriteErrRate, f.ShortWriteRate, f.TornWriteRate, f.CorruptRate, f.StallEvery, f.Stall)
}
