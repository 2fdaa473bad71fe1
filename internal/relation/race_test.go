//go:build race

package relation

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
