//go:build race

package certa_test

// raceEnabled reports whether the race detector is active; see
// race_off_test.go.
const raceEnabled = true
