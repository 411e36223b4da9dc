//go:build !race

package certa_test

// raceEnabled reports whether the race detector is active. The
// allocation gate skips under -race: the detector makes sync.Pool drop
// puts at random, so pooled paths show spurious allocations there.
const raceEnabled = false
