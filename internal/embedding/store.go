package embedding

import (
	"sync"
	"sync/atomic"
)

// StoreOptions tunes a Store.
type StoreOptions struct {
	// Shards is the number of lock stripes (default 32, rounded up to a
	// power of two). More shards means less contention between
	// concurrent explanations scoring through the same matcher.
	Shards int
	// Capacity bounds the total number of cached texts (0 = unbounded).
	// When a shard exceeds its share, its oldest entries are evicted
	// FIFO — embeddings are cheap to recompute and the working set of a
	// perturbation workload is dominated by a stable core of pivot
	// attribute texts, so approximate recency is enough.
	Capacity int
}

// Store is a concurrency-safe, content-keyed cache of text embeddings in
// front of an Embedder. Embedder.Text is a pure function of the input
// string (hashed embeddings, fitted IDF table frozen after Fit), so
// memoization is invisible to callers: the same bytes come back whether
// the vector was computed or cached. Perturbed records in an explanation
// workload reuse the pivot pair's attribute texts thousands of times
// across batches and across explanations; the store makes each distinct
// string cost one embedding per process lifetime instead of one per
// batch.
//
// Returned vectors are shared and must be treated as read-only.
type Store struct {
	emb    *Embedder
	shards []storeShard
	mask   uint64
	perCap int // max entries per shard; 0 = unbounded

	lookups   atomic.Int64
	hits      atomic.Int64
	evictions atomic.Int64
}

type storeShard struct {
	mu   sync.RWMutex
	m    map[string][]float64
	fifo []string // insertion order, for capacity eviction
}

// NewStore creates a store over a fitted embedder.
func NewStore(emb *Embedder, opts StoreOptions) *Store {
	n := opts.Shards
	if n <= 0 {
		n = 32
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	s := &Store{emb: emb, shards: make([]storeShard, p), mask: uint64(p - 1)}
	if opts.Capacity > 0 {
		s.perCap = (opts.Capacity + p - 1) / p
	}
	for i := range s.shards {
		s.shards[i].m = make(map[string][]float64)
	}
	return s
}

// Text returns the embedding of s, computing and caching it on first
// sight. Safe for concurrent use; the returned slice is shared and
// read-only.
func (st *Store) Text(s string) []float64 {
	st.lookups.Add(1)
	sh := &st.shards[fnv64(s)&st.mask]
	sh.mu.RLock()
	v, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		st.hits.Add(1)
		return v
	}
	// Compute outside the lock: a racing duplicate computation produces
	// identical bytes (Text is pure), so last-writer-wins is benign and
	// the write lock is never held across the embedding math.
	v = st.emb.Text(s)
	sh.mu.Lock()
	if prev, ok := sh.m[s]; ok {
		sh.mu.Unlock()
		st.hits.Add(1)
		return prev
	}
	sh.m[s] = v
	if st.perCap > 0 {
		sh.fifo = append(sh.fifo, s)
		for len(sh.fifo) > st.perCap {
			old := sh.fifo[0]
			sh.fifo = sh.fifo[1:]
			delete(sh.m, old)
			st.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
	return v
}

// StoreStats is a consistent-enough snapshot of store activity (counters
// are sampled independently, so ratios may be off by in-flight calls).
type StoreStats struct {
	Lookups   int
	Hits      int
	Misses    int
	Evictions int
	Entries   int
}

// Stats snapshots the store's counters and current size.
func (st *Store) Stats() StoreStats {
	s := StoreStats{
		Lookups:   int(st.lookups.Load()),
		Hits:      int(st.hits.Load()),
		Evictions: int(st.evictions.Load()),
	}
	s.Misses = s.Lookups - s.Hits
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		s.Entries += len(sh.m)
		sh.mu.RUnlock()
	}
	return s
}
