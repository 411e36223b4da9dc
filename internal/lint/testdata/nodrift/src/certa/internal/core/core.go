// Package core stands in for certa/internal/core, a deny-set package:
// nodrift must flag every environmental read here.
package core

import (
	"hash/maphash"
	"math/rand"
	"os"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `time.Now reads the wall clock inside the deterministic scoring path`
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since reads the wall clock inside the deterministic scoring path`
}

func fromEnv() string {
	return os.Getenv("CERTA_SEED") // want `os.Getenv reads the process environment inside the deterministic scoring path`
}

func globalRand() float64 {
	return rand.Float64() // want `rand.Float64 draws from the shared, unseeded generator inside the deterministic scoring path`
}

func randomSeed() maphash.Seed {
	return maphash.MakeSeed() // want `maphash.MakeSeed draws a per-process random seed inside the deterministic scoring path`
}

// hashUnder hashes with a seed the caller supplies — fine.
func hashUnder(seed maphash.Seed, s string) uint64 {
	return maphash.String(seed, s)
}

// seededRand is the sanctioned form: methods on a seeded *rand.Rand
// never match, so this stays silent.
func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// derivedTime constructs a Time from deterministic inputs — fine.
func derivedTime(sec int64) time.Time {
	return time.Unix(sec, 0)
}
