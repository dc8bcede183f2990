//go:build race

package export

// raceEnabled reports whether the race detector is compiled in; the
// allocation guards skip under it (instrumentation allocates).
const raceEnabled = true
