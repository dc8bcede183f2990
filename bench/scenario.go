package main

import (
	"forkwatch"
)

// scale sizes every generated input. The full scale is the benchmark; the
// quick scale is the smoke test's (tiny scenario, one rep, a second of
// requests) and its numbers mean nothing.
type scale struct {
	figureDays  int    // horizon of the figures workload
	denseDay    uint64 // DayLength of the serving archive ("dense-day")
	denseShort  uint64 // DayLength of the build/import archive ("dense-6h")
	users       int
	warmup      float64 // seconds of untimed requests before an rpc run
	probeKeys   int     // keys in the trie/db micro probes
	minReps     int     // fewest timed reps of a whole-pipeline workload
	setupReps   int     // set-ups per run of the whole-pipeline workloads
	probeReads  int     // direct-call reads per method in the cold probes
	sampleEvery int     // one in this many rpc answers is checked field by field
}

var fullScale = scale{
	figureDays:  90,
	denseDay:    86400,
	denseShort:  21600,
	users:       2000,
	warmup:      1,
	probeKeys:   10000,
	minReps:     3,
	setupReps:   3,
	probeReads:  4000,
	sampleEvery: 64,
}

var quickScale = scale{
	figureDays:  6,
	denseDay:    2400,
	denseShort:  1200,
	users:       200,
	warmup:      0.2,
	probeKeys:   500,
	minReps:     1,
	setupReps:   1,
	probeReads:  200,
	sampleEvery: 8,
}

// Mainnet-2016 transaction rates per 86 400 s day: about 6 tx/block on the
// majority chain, against the calibrated default's 400 tx/day under which
// "full fidelity" measures sealing and not EVM, trie or storage.
const (
	denseETHTxPerDay = 40000
	denseETCTxPerDay = 16000
)

// denseScenario is one simulated "day" of dayLength seconds at the dense
// rates, full fidelity, over the given storage.
func denseScenario(seed int64, sc scale, dayLength uint64, storage forkwatch.StorageConfig) *forkwatch.Scenario {
	s := forkwatch.NewScenario(seed, 1)
	s.Mode = forkwatch.ModeFull
	s.Users = sc.users
	s.DayLength = dayLength
	s.ETHTxPerDay = denseETHTxPerDay * float64(dayLength) / 86400
	s.ETCTxPerDay = denseETCTxPerDay * float64(dayLength) / 86400
	s.Storage = storage
	return s
}

func diskStorage(dir string) forkwatch.StorageConfig {
	return forkwatch.StorageConfig{Backend: forkwatch.StorageDisk, DataDir: dir}
}
