//go:build !race

package trading

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
