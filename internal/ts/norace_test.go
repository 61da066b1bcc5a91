//go:build !race

package ts

// raceEnabled reports whether the race detector is on; allocation pins
// skip under it.
const raceEnabled = false
