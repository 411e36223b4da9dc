// Package maphash is a fixture stub: nodrift denies MakeSeed, which
// draws a random seed per process, but not hashing under a given seed.
package maphash

type Seed struct{ s uint64 }

func MakeSeed() Seed { return Seed{} }

func String(seed Seed, s string) uint64 { return 0 }
