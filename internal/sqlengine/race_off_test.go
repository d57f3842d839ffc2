//go:build !race

package sqlengine

// raceEnabled reports whether the race detector is compiled in: its
// instrumentation allocates, and it makes sync.Pool drop items at
// random, so byte-per-operation bounds do not hold under it.
const raceEnabled = false
