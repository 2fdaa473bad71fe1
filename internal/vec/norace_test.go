//go:build !race

package vec

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
