package faultfile

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

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
func ParseSpec(spec string) (Faults, error) {
	var f Faults
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return f, fmt.Errorf("faultfile: bad spec element %q (want key=value)", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "seed":
			f.Seed, err = strconv.ParseInt(val, 10, 64)
		case "readerr":
			f.ReadErrRate, err = parseRate(val)
		case "writeerr":
			f.WriteErrRate, err = parseRate(val)
		case "torn":
			f.TornWriteRate, err = parseRate(val)
			f.ShortWriteRate = f.TornWriteRate
		case "corrupt":
			f.CorruptRate, err = parseRate(val)
		case "stallevery":
			if f.StallEvery, err = strconv.Atoi(val); err == nil && f.StallEvery < 0 {
				err = fmt.Errorf("negative count %d", f.StallEvery)
			}
		case "stall":
			if f.Stall, err = time.ParseDuration(val); err == nil && f.Stall < 0 {
				err = fmt.Errorf("negative duration %v", f.Stall)
			}
		default:
			return f, fmt.Errorf("faultfile: unknown spec key %q", key)
		}
		if err != nil {
			return f, fmt.Errorf("faultfile: bad value for %s: %v", key, err)
		}
	}
	return f, nil
}

func parseRate(val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if !(r >= 0 && r <= 1) { // also refuses NaN
		return 0, fmt.Errorf("rate %v outside [0,1]", r)
	}
	return r, nil
}

// String summarises the plan for logs.
func (f Faults) String() string {
	return fmt.Sprintf("seed=%d readerr=%.3f writeerr=%.3f short=%.4f torn=%.4f corrupt=%.4f stallevery=%d stall=%v",
		f.Seed, f.ReadErrRate, f.WriteErrRate, f.ShortWriteRate, f.TornWriteRate, f.CorruptRate, f.StallEvery, f.Stall)
}
