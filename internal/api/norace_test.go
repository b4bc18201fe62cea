//go:build !race

package api

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
