//go:build !race

package export

const raceEnabled = false
