//go:build race

package site

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
