// Package scorecache provides the memoizing, batching scoring layer
// wrapped around a black-box ER model. CERTA's cost is dominated by
// model calls, and the perturbations it scores repeat heavily: triangles
// that share support records (or supports that agree on the copied
// values) generate identical perturbed pairs, the counterfactual
// materialization re-scores pairs the lattice exploration already asked
// about, and — across explanations — pairs that share a pivot record
// re-score the very same support candidates.
//
// The layer is split in two:
//
//   - Service is the shared, concurrency-safe store: one sharded score
//     cache (striped locks keyed by store keys, below) with in-flight
//     deduplication, meant to live for a whole ExplainBatch or harness
//     run. Every distinct pair content is scored exactly once per run,
//     and two concurrent explanations that miss on the same content
//     trigger exactly one model call.
//   - Scorer is a per-explanation view over a Service. Its statistics
//     are computed against the view's own key set, so an explanation's
//     Diagnostics are exactly what a private cache would have reported —
//     deterministic at any parallelism and independent of what other
//     explanations already cached — while the actual scoring is
//     deduplicated globally. A view scores one batch at a time, as
//     CERTA asks them (triangle search, each side's lattice level by
//     level, then counterfactuals): it holds its lock for the whole
//     batch, so a concurrent caller of the same view waits, and the
//     batch's materialize callback runs under that lock and must not
//     call back into the view.
//
// Unique misses are pushed through the model's batch entry point
// (explain.BatchModel) in parallel shards.
//
// Two key forms exist. The canonical Key spells a pair's content out
// (about 365 bytes for an Abt-Buy pair); it is the form outside the
// store — request coalescing, ring placement and the snapshot format.
// Inside a Service a pair's store key is its records' interned ids:
// each Service interns every schema name and attribute value it keys,
// and a record becomes its name id, value count and value ids, 40
// bytes for an Abt-Buy pair (intern.go). Two store keys are equal
// exactly when the canonical keys are; Snapshot and Keys render the
// canonical form from the ids, and Restore parses it back.
//
// A score question hashes its store key once, under a seed drawn per
// Service, and carries that hash along the whole lookup path: the
// view's key set, the in-batch duplicate check, the stripe choice, the
// stripe's store, publication, eviction and Restore. The view's key
// set and the duplicate checks are a small open-addressing table that
// keeps each key's hash beside it and borrows the caller's key
// strings (table.go). A stripe's store copies its keys instead, into
// three flat parts (slab.go): a byte arena of keys, a slab of
// fixed-size records at stable indexes, and an index of (hash tag,
// record) pairs. A stored score is then no heap object of its own: it
// costs about 190 bytes of live heap with its arena bytes, record,
// index slot and share of interned strings, against about 230 with an
// entry object and key string per score and about 600 with canonical
// keys. Both structures compare a stored hash or tag before any key
// bytes and grow without hashing a key again. The interner lives as
// long as the Service and grows with the distinct strings keyed,
// Capacity or not (Service.InternedValues).
//
// Callers that can compute a pair's store key without building the pair
// (the view's PerturbKeyer for lattice subsets and SupportKeyer for
// triangle support candidates) use the keyed entry point,
// ScoreBatchKeyedContext: a record.Pair is then materialized only for
// the store misses the model must score. The lattice oracle's flip
// questions are keyed score lookups too — a question's answer is the
// class (score > 0.5) of the score the store returns — so there is one
// read path into the store, and the capacity bound covers every entry
// the service holds.
//
// A warm re-explanation is all store hits, so what it pays is building
// and looking up its questions, and the layer derives nothing twice:
//
//   - A Service caches each table record it keys (tableRecord): its
//     words, and per attribute the interned ids of the value's
//     token-drop variants, derived on first request. After a Service
//     first sees a record, the augmented support scan neither
//     tokenizes it nor hashes a variant. These ids live as long as the
//     Service, like the interner.
//   - The keyers write a chunk's keys (one support-scan flush, one
//     lattice level) into one builder, and the caller cuts each key
//     from its string: one allocation per chunk, not one per question.
//     The view borrows those keys; the store copies the ones it claims.
//   - Scorer.Release returns a finished view's key set, cleared, to a
//     pool that the next view takes it from, with the view's batch
//     scratch, so a view does not regrow its set from a few slots for
//     every explanation.
//
// Both layers are cancellation-aware (explain.ContextModel): waits on
// another explanation's in-flight computation return ctx.Err() as soon
// as the caller's context is cancelled, and a cancelled evaluation never
// installs a partial batch into the shared store — surviving waiters
// re-claim the keys under their own contexts, so one caller's deadline
// cannot poison results for everyone else.
package scorecache

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"certa/internal/explain"
	"certa/internal/record"
)

// Options tunes a Scorer view.
type Options struct {
	// Parallelism bounds the worker goroutines that evaluate one batch's
	// cache misses (default 1). Results are index-aligned and therefore
	// identical at any setting.
	Parallelism int
	// Disabled turns memoization off: every lookup reaches the model,
	// bypassing both the view and the shared store. Batching still
	// applies. Used by core.Options.DisableCache, the uncached reference
	// that measures what the cache saves.
	Disabled bool
}

// Stats reports the work one Scorer view performed. The counters are
// view-local: Hits and Misses are computed against the keys this view
// has seen, exactly as a private cache would report them, so they are
// deterministic even when the underlying store is shared.
type Stats struct {
	// Lookups counts score requests served (batch elements included).
	Lookups int
	// Hits counts requests answered from the view's key set, including
	// duplicates resolved within a single batch.
	Hits int
	// Misses counts unique evaluations the view requested — the model
	// calls a private cache would have made. When the view layers over a
	// shared Service, some of them are answered by the store without
	// reaching the model; ServiceStats counts the true invocations.
	Misses int
	// Batches counts logical batch evaluations forwarded to the store
	// (independent of how many parallel shards executed them).
	Batches int
}

// Scorer is a per-explanation memoizing view over a shared Service. It
// implements explain.Model and explain.BatchModel and is safe for
// concurrent use, though the intended pattern is one Scorer per
// explanation, whose stages ask their batches in sequence, so cache
// statistics stay deterministic. A view scores one batch at a time:
// each batch holds the view's lock from start to end, and a concurrent
// caller waits for it.
// The view's key set borrows its callers' key strings (cut from one
// string per chunk) and comes from, and goes back to, a pool of key
// sets (Release).
type Scorer struct {
	svc  *Service
	opts Options

	mu sync.Mutex // held for a whole batch
	viewSet
	stats Stats
}

// viewSet is a view's key set, score slots and batch scratch, pooled
// across views.
type viewSet struct {
	local   table[int] // the view's key set, under svc's key hashes: key -> index into scores
	scores  []float64  // each batch appends one slot per unique miss
	scratch batchScratch
}

// viewSets holds the key sets of released views. A set comes back
// empty but keeps its slots and scratch, so the next view fills them
// without growing.
var viewSets = sync.Pool{New: func() any { return new(viewSet) }}

// Release empties the view and returns its key set, score slots and
// batch scratch to a pool for the next view. The key set's slots are
// cleared, dropping the borrowed key strings, and the scores truncated.
// A batch in progress finishes first: Release waits for the view's
// lock. Call it once nothing will use the view again: a view used after
// Release starts over with an empty key set.
func (s *Scorer) Release() {
	s.mu.Lock()
	set := s.viewSet
	s.viewSet = viewSet{}
	s.mu.Unlock()
	if set.local.slots == nil {
		return // never scored: nothing worth pooling
	}
	clear(set.local.slots)
	set.local.n = 0
	set.scores = set.scores[:0]
	viewSets.Put(&set)
}

// New wraps a model in a private scoring view: a fresh single-view
// Service plus the Scorer over it. The model's batch entry point is used
// when it has one; plain models fall back to per-pair Score calls.
func New(m explain.Model, opts Options) *Scorer {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	// A single-view store has no cross-view contention; one stripe
	// keeps its keys in one slab rather than spreading them over 32,
	// each growing its own arena, records and index.
	svc := NewService(m, ServiceOptions{Parallelism: opts.Parallelism, Shards: 1})
	return svc.NewScorer(opts)
}

// Name implements explain.Model.
func (s *Scorer) Name() string { return s.svc.Name() }

// Underlying returns the wrapped model, bypassing the cache and its
// statistics — for instrumentation queries that must not count as
// algorithm cost.
func (s *Scorer) Underlying() explain.BatchModel { return s.svc.Underlying() }

// Stats returns a snapshot of the view's counters.
func (s *Scorer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Score implements explain.Model through the cache.
func (s *Scorer) Score(p record.Pair) float64 {
	return s.ScoreBatch([]record.Pair{p})[0]
}

// ScoreBatch implements explain.BatchModel: duplicates inside the batch
// and pairs seen by earlier calls are answered from the view, and only
// the remaining unique pairs are forwarded to the shared store — in one
// logical batch, answered from the store when another explanation
// already paid for them and scored by the model otherwise.
//
// The error-less BatchModel surface cannot report a model failure: a
// native explain.ContextModel that errors under this uncancellable
// context panics (see the ContextModel contract — drive fallible models
// through ScoreBatchContext instead).
func (s *Scorer) ScoreBatch(pairs []record.Pair) []float64 {
	out, err := s.ScoreBatchContext(context.Background(), pairs)
	if err != nil {
		// Unreachable for plain and batch models.
		panic(fmt.Sprintf("scorecache: model %q failed outside cancellation: %v", s.Name(), err))
	}
	return out
}

// ScoreBatchContext implements explain.ContextModel: ScoreBatch under a
// caller context. Cancellation aborts store waits and model calls with
// ctx.Err(); the view's counters still record the batch's lookups and
// misses (they were requested), but no score from an aborted batch is
// installed in the view or the shared store. It is
// ScoreBatchKeyedContext with the keys derived from the pairs.
func (s *Scorer) ScoreBatchContext(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = s.Key(p)
	}
	return s.ScoreBatchKeyedContext(ctx, keys, func(i int) record.Pair { return pairs[i] })
}

// Key returns p's store key in this view's Service: the interned ids
// of its schema names and values (see the package doc). It is the key
// ScoreBatchKeyedContext takes; two pairs get equal keys exactly when
// their canonical Keys are equal.
func (s *Scorer) Key(p record.Pair) string { return s.svc.key(p) }

// dup is an in-batch duplicate: output slot answered by unique miss mi.
type dup struct{ mi, slot int }

// batchScratch is one keyed batch's working slices: its key hashes,
// unique misses, in-batch duplicates and the misses' keys and hashes.
// A view reuses them from batch to batch and pools them with its key
// set, so a warm batch allocates only the scores it returns.
type batchScratch struct {
	hashes     []uint64
	misses     []int
	dups       []dup
	missKeys   []string
	missHashes []uint64
}

// ScoreBatchKeyedContext is ScoreBatchContext with caller-supplied
// store keys (from the view's Key, PerturbKeyer or SupportKeyer, never
// the canonical Key) and a materialize callback invoked only for the
// pairs the model must score: view hits, in-batch duplicates and keys
// the shared store already holds never build a record.Pair. keys[i]
// must equal s.Key(materialize(i)); materialize is called at most once
// per index, on the calling goroutine. Stats are identical to
// ScoreBatchContext's on the same input.
//
// The batch holds the view's lock from start to end, so a concurrent
// call on the same view waits until it returns, and materialize, which
// runs under that lock, must not call back into the view.
func (s *Scorer) ScoreBatchKeyedContext(ctx context.Context, keys []string, materialize func(i int) record.Pair) ([]float64, error) {
	if len(keys) == 0 {
		return []float64{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.Disabled {
		// Every lookup reaches the model; nothing is deduplicated.
		s.stats.Lookups += len(keys)
		s.stats.Misses += len(keys)
		s.stats.Batches++
		pairs := make([]record.Pair, len(keys))
		for i := range pairs {
			pairs[i] = materialize(i)
		}
		return s.svc.direct(ctx, pairs, s.opts.Parallelism)
	}

	// Each key is hashed once; the view, the in-batch duplicate check
	// and the shared store all reuse that hash.
	bs := &s.scratch
	hashes := bs.hashes[:0]
	for _, k := range keys {
		hashes = append(hashes, s.svc.hash(k))
	}
	bs.hashes = hashes

	// Resolve view hits and collect unique misses (the key index of each
	// first occurrence) in first-occurrence order. Miss j's score lands
	// in slot first+j of the view's scores, so a key whose slot is at or
	// past first is a duplicate within this batch.
	out := make([]float64, len(keys))
	misses, dups := bs.misses[:0], bs.dups[:0]
	s.stats.Lookups += len(keys)
	first := len(s.scores)
	for i, k := range keys {
		v, ok := s.local.get(hashes[i], k)
		switch {
		case !ok:
			s.local.put(hashes[i], k, first+len(misses))
			misses = append(misses, i)
		case v >= first:
			// Duplicate within this batch: scored once, fanned out.
			dups = append(dups, dup{mi: v - first, slot: i})
			s.stats.Hits++
		default:
			out[i] = s.scores[v]
			s.stats.Hits++
		}
	}
	bs.misses, bs.dups = misses, dups
	if len(misses) == 0 {
		return out, nil
	}
	s.stats.Misses += len(misses)
	s.stats.Batches++

	missKeys, missHashes := bs.missKeys[:0], bs.missHashes[:0]
	for _, ki := range misses {
		missKeys = append(missKeys, keys[ki])
		missHashes = append(missHashes, hashes[ki])
	}
	bs.missKeys, bs.missHashes = missKeys, missHashes
	defer clear(missKeys) // drop the borrowed keys

	// The store writes the misses' scores into the view's next slots,
	// which the view appends only once the batch succeeds. A batch that
	// fails, by an error or a panic in materialize, leaves none of its
	// keys in the view.
	s.scores = slices.Grow(s.scores, len(misses))
	scores := s.scores[first : first+len(misses)]
	defer func() {
		if len(s.scores) == first {
			for _, ki := range misses {
				s.local.delete(hashes[ki], keys[ki])
			}
		}
	}()
	if err := s.svc.fetch(ctx, scores, missKeys, missHashes, func(j int) record.Pair { return materialize(misses[j]) }); err != nil {
		return nil, err
	}
	s.scores = s.scores[:first+len(misses)]
	for j, ki := range misses {
		out[ki] = scores[j]
	}
	for _, d := range dups {
		out[d.slot] = scores[d.mi]
	}
	return out, nil
}
