//go:build race

package trading

// raceEnabled reports whether the race detector is active; its
// instrumentation changes allocation counts, so the alloc guards skip
// their strict ceilings under -race.
const raceEnabled = true
