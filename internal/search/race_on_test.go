//go:build race

package search

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
