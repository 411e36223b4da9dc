// Package memo caches functions for the lifetime of their owner. The
// matcher keeps three memos: text embeddings, token vectors and
// DeepMatcher attribute blocks. The token vectors and blocks are pure
// functions of their keys, so a cached value is the value a fresh call
// would return. The embedding memo's value also carries an id for its
// text, which is not a function of the text: it is whatever id the
// first computation drew. The first value stored for a key wins (a
// racing Get that computed another returns the stored one), so every
// Get of a text returns the same id, and the block memo is keyed by
// those ids. Every score is bit-identical with or without the memos.
package memo

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// stripes is the number of lock stripes: enough that concurrent
// explanations scoring through one matcher rarely share a lock.
const stripes = 32

// Memo is a concurrency-safe cache in front of a pure function of K,
// created by New. It has no bound: an entry lives as long as the Memo.
// Values are stored inline in the stripe maps, so a V without pointers
// costs the map no pointer per entry.
type Memo[K comparable, V any] struct {
	seed    maphash.Seed
	stripes [stripes]stripe[K, V]
}

type stripe[K comparable, V any] struct {
	mu      sync.RWMutex
	m       map[K]V
	lookups atomic.Int64
	misses  int64 // guarded by mu; one per stored entry
}

// New returns an empty memo.
func New[K comparable, V any]() *Memo[K, V] {
	m := &Memo[K, V]{
		seed: maphash.MakeSeed(), //lint:allow nodrift stripe placement only; every value is a pure function of its key
	}
	for i := range m.stripes {
		m.stripes[i].m = make(map[K]V)
	}
	return m
}

// Get returns the value for k, computing f(k) outside any lock on a
// miss. Two Gets that race on one key both compute it, and the later
// one returns the value the earlier one stored, so every Get of k
// returns one value even where f's result is not a function of k
// alone. Returned values are shared; treat any memory they reference
// as read-only.
func (m *Memo[K, V]) Get(k K, f func(K) V) V {
	s := &m.stripes[maphash.Comparable(m.seed, k)&(stripes-1)]
	s.lookups.Add(1)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		return v
	}
	v = f(k)
	s.mu.Lock()
	if prev, ok := s.m[k]; ok {
		v = prev
	} else {
		s.m[k] = v
		s.misses++
	}
	s.mu.Unlock()
	return v
}

// AddHits counts n lookups that the caller answered itself from values
// an earlier Get returned, such as a batch reusing the previous row's
// value, as lookups and hits. Lookups then count every value the
// caller needed, however its batches reuse them.
func (m *Memo[K, V]) AddHits(n int) { m.stripes[0].lookups.Add(int64(n)) }

// Stats is a snapshot of a memo's activity. Misses counts stored
// entries, and a Get that lost a race to store its key counts as a
// hit, so Lookups = Hits + Misses and Misses = Entries.
type Stats struct {
	Lookups int
	Hits    int
	Misses  int
	Entries int
}

// Stats snapshots the memo's counters. Each stripe's misses are read
// before its lookups, so a concurrent Get can never make Hits negative.
func (m *Memo[K, V]) Stats() Stats {
	var st Stats
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		st.Misses += int(s.misses)
		st.Entries += len(s.m)
		s.mu.RUnlock()
		st.Lookups += int(s.lookups.Load())
	}
	st.Hits = st.Lookups - st.Misses
	return st
}
