package scorecache

import (
	"context"
	"fmt"
	"hash/maphash"
	"sync"

	"certa/internal/explain"
	"certa/internal/record"
	"certa/internal/telemetry"
	"certa/internal/workpool"
)

// ServiceOptions tunes a shared scoring Service.
type ServiceOptions struct {
	// Parallelism bounds the worker goroutines that evaluate one fetch's
	// store misses (default 1). Results are index-aligned and therefore
	// identical at any setting.
	Parallelism int
	// Capacity bounds the number of cached scores (0 = unbounded). When
	// set, each lock stripe keeps an LRU list of at most
	// ⌈Capacity/Shards⌉ entries and evicts its coldest, so the store
	// holds at most Shards×⌈Capacity/Shards⌉ scores (1,024 for 1,000 over
	// the default 32 stripes) and million-pair workloads cannot grow
	// memory without limit. Eviction never changes results — an
	// evicted key is simply re-scored on its next request. Stripes are
	// chosen by a hash seeded per Service, so which keys share an LRU,
	// and therefore eviction order and the Evictions count, varies from
	// process to process.
	Capacity int
	// Shards is the number of lock stripes (default 32). More stripes
	// reduce contention between concurrent explanations.
	Shards int
}

func (o ServiceOptions) withDefaults() ServiceOptions {
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	if o.Shards <= 0 {
		o.Shards = 32
	}
	return o
}

// ServiceStats reports the aggregate work a shared Service performed
// across every explanation that scored through it. How that work splits
// among explanations depends on scheduling (which one reaches a key
// first), so unlike explanation Diagnostics these shared-store counters
// are not parallelism-deterministic.
type ServiceStats struct {
	// Lookups counts key requests that reached the shared store.
	Lookups int
	// Hits counts requests answered without a new model invocation:
	// either the score was already stored, or another explanation was
	// computing it in flight and the result was shared.
	Hits int
	// Misses counts unique model invocations — the true cost of the
	// whole run.
	Misses int
	// Batches counts logical batch evaluations that reached the model.
	Batches int
	// Evictions counts entries dropped by the capacity bound.
	Evictions int
	// FlipLookups is always 0: lattice flip questions are keyed score
	// lookups, counted in Lookups and Hits.
	//
	// Deprecated: kept only so existing readers compile.
	FlipLookups int
	// FlipHits is always 0; see FlipLookups.
	//
	// Deprecated: kept only so existing readers compile.
	FlipHits int
}

// claim is one fetch's batch of store misses in flight; all of its
// records share it. done is closed once every record is published, with
// scores holding the batch's scores in claim order (a record's pos), or,
// with failed set, once every record is removed from the store because
// the leader was cancelled or panicked mid-batch — waiters then
// re-claim the keys themselves instead of reading a zero score or
// inheriting the leader's cancellation. A waiter reads its score from
// scores, never from the store, so an eviction and a reused record
// after publication cannot hand it another key's score.
type claim struct {
	done   chan struct{}
	failed bool
	scores []float64
}

// serviceShard is one lock stripe of the store.
type serviceShard struct {
	mu sync.Mutex
	slab
}

// Service is a shared, concurrency-safe scoring service: one store of
// memoized scores (striped locks keyed by store keys of interned ids)
// with in-flight deduplication, intended to live for a whole
// ExplainBatch or harness run. Two concurrent explanations that miss on
// the same pair content trigger exactly one model call; everything else
// is answered from the store.
//
// Service implements explain.Model and explain.BatchModel, so it can be
// handed directly to the baseline explainers. CERTA explanations layer a
// per-explanation Scorer view over it (NewScorer) so their Diagnostics
// stay deterministic regardless of what other explanations already
// cached.
type Service struct {
	model  explain.BatchModel
	cmodel explain.ContextModel
	opts   ServiceOptions
	seed   maphash.Seed // key hashes (hash): stripe and slot placement
	shards []serviceShard

	strs    interner // schema names and values of every store key
	records sync.Map // *record.Record -> *tableRecord (SupportKeyer)

	statmu sync.Mutex
	stats  ServiceStats
}

// NewService wraps a model in a shared scoring service. The model's
// batch and context entry points are used when it has them; plain
// models fall back to per-pair Score calls with a per-batch
// cancellation check.
func NewService(m explain.Model, opts ServiceOptions) *Service {
	opts = opts.withDefaults()
	s := &Service{
		model:  explain.AsBatch(m),
		cmodel: explain.AsContext(m),
		opts:   opts,
		// maphash seeds are random per process. The seed decides lock
		// and slot placement (and, under Capacity, which LRU holds a
		// key), never a score, Result or Diagnostics.
		seed:   maphash.MakeSeed(), //lint:allow nodrift stripe and slot placement only; no score, Result or Diagnostics depends on it
		shards: make([]serviceShard, opts.Shards),
	}
	perShard := 0
	if opts.Capacity > 0 {
		perShard = (opts.Capacity + opts.Shards - 1) / opts.Shards
		if perShard < 1 {
			perShard = 1
		}
	}
	for i := range s.shards {
		s.shards[i].cap = perShard
	}
	return s
}

// Name implements explain.Model.
func (s *Service) Name() string { return s.model.Name() }

// Underlying returns the wrapped model, bypassing the store and its
// statistics — for instrumentation queries that must not count as
// algorithm cost.
func (s *Service) Underlying() explain.BatchModel { return s.model }

// Stats returns a snapshot of the shared counters.
func (s *Service) Stats() ServiceStats {
	s.statmu.Lock()
	defer s.statmu.Unlock()
	return s.stats
}

// InternedValues reports how many distinct schema names and attribute
// values the Service has interned for its store keys. The interner
// lives as long as the Service: it grows with the distinct strings
// keyed and does not shrink when Capacity evicts scores.
func (s *Service) InternedValues() int { return len(s.strs.table()) }

// NewScorer opens a per-explanation view over the shared store. The
// view's Stats are computed against its own private key set, so they are
// exactly what a private cache would have reported — deterministic and
// independent of concurrent explanations — while the underlying scoring
// is deduplicated across every view of the Service. The key set comes
// from the pool that Scorer.Release fills, empty.
func (s *Service) NewScorer(opts Options) *Scorer {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	set := viewSets.Get().(*viewSet)
	return &Scorer{svc: s, opts: opts, viewSet: *set}
}

// Score implements explain.Model through the shared store.
func (s *Service) Score(p record.Pair) float64 {
	return s.ScoreBatch([]record.Pair{p})[0]
}

// ScoreBatch implements explain.BatchModel: duplicates inside the batch
// and pairs any earlier request stored are answered from the store, and
// only the remaining unique pairs reach the model.
//
// The error-less BatchModel surface cannot report a model failure: a
// native explain.ContextModel that errors under this uncancellable
// context panics (see the ContextModel contract — drive fallible models
// through ScoreBatchContext instead).
func (s *Service) ScoreBatch(pairs []record.Pair) []float64 {
	out, err := s.ScoreBatchContext(context.Background(), pairs)
	if err != nil {
		// Unreachable for plain and batch models.
		panic(fmt.Sprintf("scorecache: model %q failed outside cancellation: %v", s.model.Name(), err))
	}
	return out
}

// ScoreBatchContext implements explain.ContextModel: like ScoreBatch,
// but the caller's context governs the whole resolution — waiting on
// another caller's in-flight computation returns ctx.Err() as soon as
// ctx is cancelled, and a cancelled batch evaluation never installs a
// partial result set into the shared store.
func (s *Service) ScoreBatchContext(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	out := make([]float64, len(pairs))
	if len(pairs) == 0 {
		return out, ctx.Err()
	}
	var keys []string
	var hashes []uint64
	var unique []record.Pair
	at := make([]int, len(pairs)) // pair index -> index into keys
	first := newTable[int](len(pairs))
	for i, p := range pairs {
		k := s.key(p)
		h := s.hash(k)
		u, ok := first.get(h, k)
		if !ok {
			u = len(keys)
			first.put(h, k, u)
			keys = append(keys, k)
			hashes = append(hashes, h)
			unique = append(unique, p)
		}
		at[i] = u
	}
	if dupes := len(pairs) - len(keys); dupes > 0 {
		s.statmu.Lock()
		s.stats.Lookups += dupes
		s.stats.Hits += dupes
		s.statmu.Unlock()
	}
	scores := make([]float64, len(keys))
	if err := s.fetch(ctx, scores, keys, hashes, func(i int) record.Pair { return unique[i] }); err != nil {
		return nil, err
	}
	for i, u := range at {
		out[i] = scores[u]
	}
	return out, nil
}

// hash is the one hash of a store key, computed once per score
// question and reused by the view's key set, the in-batch duplicate
// check, the stripe choice and the stripe's table.
func (s *Service) hash(key string) uint64 { return maphash.String(s.seed, key) }

// stripe returns the lock stripe of a key with hash h.
func (s *Service) stripe(h uint64) *serviceShard {
	return &s.shards[h%uint64(len(s.shards))]
}

// waiter records an output slot blocked on another goroutine's
// in-flight computation: the claim computing it and the key's position
// in the claim's scores.
type waiter struct {
	slot int
	c    *claim
	pos  uint32
}

// fetch resolves unique store keys against the store, writing keys[i]'s
// score to out[i] (len(out) == len(keys)): stored scores are
// written immediately, keys being computed by another goroutine are
// waited on, and the remaining misses are claimed, materialized
// (materialize(i) is the pair of keys[i], called only for claimed keys,
// on the calling goroutine), scored in one logical batch (sharded
// across ServiceOptions.Parallelism workers) and published. Keys must be
// unique within one call; hashes[i] is hash(keys[i]). The store copies
// each claimed key into its stripe's arena, so keys are not retained.
//
// ctx governs the waits: a caller whose context is cancelled while
// another caller computes its keys returns ctx.Err() immediately instead
// of blocking on work it no longer wants. A leader that fails mid-batch
// (cancellation or model panic) unpublishes its claims, so surviving
// waiters re-claim the keys and score them under their own contexts.
func (s *Service) fetch(ctx context.Context, out []float64, keys []string, hashes []uint64, materialize func(i int) record.Pair) error {
	var claimed []int    // indexes this call must score
	var recs []uint32    // their store records, index-aligned with claimed
	var waiters []waiter // indexes computed by concurrent callers
	var mine *claim      // the claim of this call's records
	hits := 0

	for i, k := range keys {
		h := hashes[i]
		sh := s.stripe(h)
		sh.mu.Lock()
		if r, ok := sh.find(h, k); ok {
			if rc := &sh.recs[r]; rc.claim == nil {
				out[i] = rc.score
				sh.touch(r)
			} else {
				waiters = append(waiters, waiter{slot: i, c: rc.claim, pos: rc.pos})
			}
			hits++ // a pending record is in-flight dedup: no new model call
			sh.mu.Unlock()
			continue
		}
		if mine == nil {
			mine = &claim{done: make(chan struct{})}
		}
		r := sh.insert(h, k)
		sh.recs[r].claim = mine
		sh.recs[r].pos = uint32(len(claimed))
		sh.mu.Unlock()
		claimed = append(claimed, i)
		recs = append(recs, r)
	}

	s.statmu.Lock()
	s.stats.Lookups += len(keys)
	s.stats.Hits += hits
	s.stats.Misses += len(claimed)
	if len(claimed) > 0 {
		s.stats.Batches++
	}
	s.statmu.Unlock()

	if len(claimed) > 0 {
		if err := s.scoreClaims(ctx, materialize, out, hashes, claimed, recs, mine); err != nil {
			return err
		}
	}

	// Wait on concurrent computations only after publishing our own
	// claims, so two calls with overlapping key sets cannot deadlock.
	var retry []waiter
	for _, w := range waiters {
		select {
		case <-w.c.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if w.c.failed {
			// The leader was cancelled or crashed after we enlisted; its
			// defer removed the record from the store, so the key is ours
			// to claim on a second pass.
			retry = append(retry, w)
			continue
		}
		out[w.slot] = w.c.scores[w.pos]
	}
	if len(retry) > 0 {
		// The enlistment was counted as a lookup answered in flight
		// (a hit), but the leader failed and no answer ever arrived;
		// take the phantom hit back before the recursive re-claim
		// re-records the request as whatever it actually turns out to be.
		s.statmu.Lock()
		s.stats.Lookups -= len(retry)
		s.stats.Hits -= len(retry)
		s.statmu.Unlock()

		rkeys := make([]string, len(retry))
		rhashes := make([]uint64, len(retry))
		for i, w := range retry {
			rkeys[i] = keys[w.slot]
			rhashes[i] = hashes[w.slot]
		}
		scores := make([]float64, len(retry))
		if err := s.fetch(ctx, scores, rkeys, rhashes, func(i int) record.Pair { return materialize(retry[i].slot) }); err != nil {
			return err
		}
		for i, w := range retry {
			out[w.slot] = scores[i]
		}
	}
	return nil
}

// scoreClaims evaluates this call's store misses in one logical batch
// and publishes the results: recs[j] is the record of keys[claimed[j]],
// pending under c at position j. Publication is all-or-nothing: if the
// context is cancelled mid-batch or the model panics (for example on a
// batch-length contract violation), every record still pending under c
// is removed and the claim marked failed before the error or panic
// propagates — the shared store never holds a partial batch, and
// waiters are never left blocked on a leader that gave up.
func (s *Service) scoreClaims(ctx context.Context, materialize func(i int) record.Pair, out []float64, hashes []uint64, claimed []int, recs []uint32, c *claim) (err error) {
	published := false
	defer func() {
		if published {
			return
		}
		for j, r := range recs {
			sh := s.stripe(hashes[claimed[j]])
			sh.mu.Lock()
			if sh.recs[r].claim == c {
				sh.remove(r)
			}
			sh.mu.Unlock()
		}
		c.failed = true
		close(c.done)
	}()

	pairs := make([]record.Pair, len(claimed))
	for j, i := range claimed {
		pairs[j] = materialize(i)
	}
	// Span for the model evaluation of this batch's true misses; the
	// matcher's featurize/forward spans nest under it (per shard).
	// Telemetry is a side channel — scoring and publication are
	// untouched by it.
	sp, ctx := telemetry.StartSpan(ctx, "model")
	sp.AddItems(len(claimed))
	scores, err := s.scoreSharded(ctx, pairs, s.opts.Parallelism)
	sp.End()
	if err != nil {
		return err
	}

	c.scores = scores
	evictions := 0
	for j, r := range recs {
		out[claimed[j]] = scores[j]
		sh := s.stripe(hashes[claimed[j]])
		sh.mu.Lock()
		sh.recs[r].score = scores[j]
		sh.recs[r].claim = nil
		evictions += sh.link(r)
		sh.mu.Unlock()
	}
	published = true
	close(c.done)
	if evictions > 0 {
		s.statmu.Lock()
		s.stats.Evictions += evictions
		s.statmu.Unlock()
	}
	return nil
}

// direct evaluates pairs against the model without touching the store —
// the cache-disabled ablation path. The calls still count as shared
// lookups and misses so run-level cost accounting stays truthful.
func (s *Service) direct(ctx context.Context, pairs []record.Pair, parallelism int) ([]float64, error) {
	if len(pairs) == 0 {
		return nil, ctx.Err()
	}
	s.statmu.Lock()
	s.stats.Lookups += len(pairs)
	s.stats.Misses += len(pairs)
	s.stats.Batches++
	s.statmu.Unlock()
	return s.scoreSharded(ctx, pairs, parallelism)
}

// scoreSharded scores pairs (at least one) with the model in at most
// parallelism (at least 1) contiguous shards, one batch call each, and
// returns the index-aligned scores. A shard that panics — the model, or
// the batch-length check — fails the call with a *workpool.PanicError.
func (s *Service) scoreSharded(ctx context.Context, pairs []record.Pair, parallelism int) ([]float64, error) {
	scores := make([]float64, len(pairs))
	shards := min(parallelism, len(pairs))
	err := workpool.EachContext(ctx, shards, shards, func(ctx context.Context, w int) error {
		per := (len(pairs) + shards - 1) / shards
		lo := w * per
		hi := min(lo+per, len(pairs))
		if lo >= hi {
			return nil
		}
		chunk := pairs[lo:hi:hi]
		got, err := s.cmodel.ScoreBatchContext(ctx, chunk)
		if err != nil {
			return err
		}
		if len(got) != len(chunk) {
			// A silent mismatch would cache zeros; fail loudly instead.
			panic(fmt.Sprintf("scorecache: model %q returned %d scores for %d pairs",
				s.model.Name(), len(got), len(chunk)))
		}
		copy(scores[lo:hi], got)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}
