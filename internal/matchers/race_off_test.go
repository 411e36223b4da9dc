//go:build !race

package matchers

// raceEnabled reports whether the race detector is active. The
// allocation and heap gates skip under -race: the detector makes
// sync.Pool drop puts at random and adds shadow memory to every
// allocation.
const raceEnabled = false
