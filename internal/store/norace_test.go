//go:build !race

package store

// raceEnabled reports whether the race detector is on; allocation pins
// skip under it.
const raceEnabled = false
