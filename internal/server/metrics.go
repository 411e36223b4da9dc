package server

import (
	"time"

	"certa/internal/memo"
	"certa/internal/telemetry"
)

// The server's metric catalog, scraped at GET /v1/metrics — the
// server's only stats surface. The counters the serving layers own
// (request outcomes, per-backend requests and errors) are registry
// Counter handles, incremented in place. Numbers another package owns
// (scorecache.ServiceStats, the matcher's memo.Stats, the request
// table, admission occupancy) are bridged with callback-backed series
// (CounterFunc/GaugeFunc) read at scrape time. Either way the registry
// holds the only copy of each number.
const (
	metricUptime    = "certa_uptime_seconds"
	metricModelInfo = "certa_model_info"
	metricServed    = "certa_explanations_served_total"
	metricCoalesced = "certa_requests_coalesced_total"
	metricMemoized  = "certa_requests_memoized_total"
	metricRejected  = "certa_requests_rejected_total"
	metricCancelled = "certa_requests_cancelled_total"
	metricErrors    = "certa_request_errors_total"

	metricAdmInFlight  = "certa_admission_in_flight"
	metricAdmQueue     = "certa_admission_queue_depth"
	metricAdmHighWater = "certa_admission_queue_high_water"
	metricAdmEwma      = "certa_admission_ewma_latency_seconds"

	metricBackendRequests = "certa_backend_requests_total"
	metricBackendErrors   = "certa_backend_errors_total"

	metricCacheLookups   = "certa_score_cache_lookups_total"
	metricCacheHits      = "certa_score_cache_hits_total"
	metricCacheMisses    = "certa_score_cache_misses_total"
	metricCacheBatches   = "certa_score_cache_batches_total"
	metricCacheEvictions = "certa_score_cache_evictions_total"
	metricCacheEntries   = "certa_score_cache_entries"
	metricCacheRestored  = "certa_score_cache_restored_entries"
	metricCacheInterned  = "certa_score_cache_interned_values"

	metricMemoLookups = "certa_result_memo_lookups_total"
	metricMemoHits    = "certa_result_memo_hits_total"
	metricMemoEntries = "certa_result_memo_entries"
	metricMemoCap     = "certa_result_memo_capacity"

	metricEmbedLookups = "certa_embedding_lookups_total"
	metricEmbedHits    = "certa_embedding_hits_total"
	metricEmbedMisses  = "certa_embedding_misses_total"
	metricEmbedEntries = "certa_embedding_entries"

	metricBlockEntries = "certa_block_memo_entries"

	metricIndexRecords = "certa_index_records"
	metricIndexTokens  = "certa_index_distinct_tokens"
	metricIndexBuild   = "certa_index_build_seconds"

	metricExplainDuration = "certa_explain_duration_seconds"
	metricStageDuration   = "certa_stage_duration_seconds"
	metricHTTPDuration    = "certa_http_request_duration_seconds"
)

const helpStageDuration = "Per-computation wall time spent in one engine stage (from the explanation trace)."

// registerMetrics publishes the server's observable state into
// s.metrics. Called once from New, after the backends are resolved.
func (s *Server) registerMetrics() {
	m := s.metrics
	m.GaugeFunc(metricUptime, "Seconds since server construction.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	s.served = m.Counter(metricServed, "Completed explanation computations.", nil)
	s.coalesced = m.Counter(metricCoalesced, "Requests answered by attaching to another request's in-flight computation.", nil)
	s.memoized = m.Counter(metricMemoized, "Requests answered by replaying a memoized response body.", nil)
	s.rejected = m.Counter(metricRejected, "Requests rejected with 429 by the admission controller.", nil)
	s.cancelled = m.Counter(metricCancelled, "Requests whose client disconnected mid-wait or mid-computation.", nil)
	s.errored = m.Counter(metricErrors, "Requests that failed for any other reason.", nil)

	m.GaugeFunc(metricAdmInFlight, "Explanations computing right now.", nil, func() float64 {
		inflight, _, _, _ := s.adm.snapshot()
		return float64(inflight)
	})
	m.GaugeFunc(metricAdmQueue, "Explanations waiting for an in-flight slot.", nil, func() float64 {
		_, queued, _, _ := s.adm.snapshot()
		return float64(queued)
	})
	m.GaugeFunc(metricAdmHighWater, "Deepest the admission queue has been since startup.", nil, func() float64 {
		_, _, hw, _ := s.adm.snapshot()
		return float64(hw)
	})
	m.GaugeFunc(metricAdmEwma, "EWMA of per-explanation latency (prices Retry-After).", nil, func() float64 {
		_, _, _, ewma := s.adm.snapshot()
		return ewma / 1000 // the controller keeps milliseconds
	})

	s.httpExplain = m.Histogram(metricHTTPDuration,
		"Whole-handler request latency, admission wait and coalescing included.",
		telemetry.Labels{"endpoint": "/v1/explain"}, telemetry.LatencyBuckets)
	s.httpBatch = m.Histogram(metricHTTPDuration,
		"Whole-handler request latency, admission wait and coalescing included.",
		telemetry.Labels{"endpoint": "/v1/explain/batch"}, telemetry.LatencyBuckets)

	for _, name := range s.order {
		s.registerBackendMetrics(s.backends[name])
	}
}

// embeddingStatser is implemented by backend models that keep a
// matcher-lifetime embedding memo (see matchers.Model.EmbeddingStats).
type embeddingStatser interface {
	EmbeddingStats() memo.Stats
}

// blockStatser is implemented by backend models that keep a
// matcher-lifetime attribute-block memo (see matchers.Model.BlockStats).
type blockStatser interface {
	BlockStats() memo.Stats
}

// registerBackendMetrics publishes one backend's series, labeled
// {backend="name"}. Engine-side stats (score cache, embedding and
// block memos) are bridged from their existing side-channel structs
// at scrape time.
func (s *Server) registerBackendMetrics(b *backend) {
	m := s.metrics
	lbl := telemetry.Labels{"backend": b.name}

	m.Gauge(metricModelInfo, "Always 1; the model label names the model this backend explains.",
		telemetry.Labels{"backend": b.name, "model": b.model.Name()}).Set(1)
	b.requests = m.Counter(metricBackendRequests, "Explanation requests routed to this backend.", lbl)
	b.errors = m.Counter(metricBackendErrors, "Routed requests that failed (rejections and cancellations included).", lbl)
	b.latency = m.Histogram(metricExplainDuration,
		"Per-computation explanation latency, admission wait excluded.",
		lbl, telemetry.LatencyBuckets)

	m.CounterFunc(metricCacheLookups, "Score cache lookups.", lbl,
		func() float64 { return float64(b.svc.Stats().Lookups) })
	m.CounterFunc(metricCacheHits, "Score cache hits.", lbl,
		func() float64 { return float64(b.svc.Stats().Hits) })
	m.CounterFunc(metricCacheMisses, "Score cache misses (unique model invocations paid).", lbl,
		func() float64 { return float64(b.svc.Stats().Misses) })
	m.CounterFunc(metricCacheBatches, "Model forward batches issued by the score cache.", lbl,
		func() float64 { return float64(b.svc.Stats().Batches) })
	m.CounterFunc(metricCacheEvictions, "Score cache evictions.", lbl,
		func() float64 { return float64(b.svc.Stats().Evictions) })
	m.GaugeFunc(metricCacheEntries, "Scores currently stored in the cache.", lbl,
		func() float64 { return float64(b.svc.Len()) })
	m.Gauge(metricCacheRestored, "Cache entries restored from a snapshot at startup.", lbl).
		Set(float64(b.restored))
	m.GaugeFunc(metricCacheInterned, "Distinct schema names and values interned for score cache keys; grows with distinct strings, not bounded by the cache capacity.", lbl,
		func() float64 { return float64(b.svc.InternedValues()) })

	if b.calls.capacity > 0 {
		m.Gauge(metricMemoCap, "Response bodies the result memo can hold.", lbl).
			Set(float64(b.calls.capacity))
		m.CounterFunc(metricMemoLookups, "Result memo lookups (deterministic explanation requests).", lbl,
			func() float64 { lookups, _, _ := b.calls.stats(); return float64(lookups) })
		m.CounterFunc(metricMemoHits, "Requests answered by replaying a memoized response body.", lbl,
			func() float64 { _, hits, _ := b.calls.stats(); return float64(hits) })
		m.GaugeFunc(metricMemoEntries, "Response bodies currently memoized.", lbl,
			func() float64 { _, _, kept := b.calls.stats(); return float64(kept) })
	}

	if es, ok := b.model.(embeddingStatser); ok {
		m.CounterFunc(metricEmbedLookups, "Embedding memo lookups.", lbl,
			func() float64 { return float64(es.EmbeddingStats().Lookups) })
		m.CounterFunc(metricEmbedHits, "Texts served without re-embedding.", lbl,
			func() float64 { return float64(es.EmbeddingStats().Hits) })
		m.CounterFunc(metricEmbedMisses, "Embedding memo misses.", lbl,
			func() float64 { return float64(es.EmbeddingStats().Misses) })
		m.GaugeFunc(metricEmbedEntries, "Vectors currently held by the embedding memo.", lbl,
			func() float64 { return float64(es.EmbeddingStats().Entries) })
	}

	if bs, ok := b.model.(blockStatser); ok {
		m.GaugeFunc(metricBlockEntries, "Similarity blocks currently held by the attribute-block memo (0 for models without blocks).", lbl,
			func() float64 { return float64(bs.BlockStats().Entries) })
	}

	// The retrieval index is immutable after construction, so its stats
	// are plain gauges set once rather than scrape-time callbacks.
	if ist, ok := b.opts.Retrieval.Stats(); ok {
		m.Gauge(metricIndexRecords, "Records in the candidate retrieval index.", lbl).
			Set(float64(ist.Records))
		m.Gauge(metricIndexTokens, "Inverted-index vocabulary size.", lbl).
			Set(float64(ist.DistinctTokens))
		m.Gauge(metricIndexBuild, "Wall-clock index construction time.", lbl).
			Set(ist.BuildMS / 1000)
	}
}

// stageHist resolves the per-stage latency series for one (backend,
// stage). Registration is idempotent, so stages discovered at runtime
// (lattice/level3 appears only when a lattice reaches level 3) create
// their series on first observation.
func (s *Server) stageHist(backend, stage string) *telemetry.Histogram {
	return s.metrics.Histogram(metricStageDuration, helpStageDuration,
		telemetry.Labels{"backend": backend, "stage": stage}, telemetry.LatencyBuckets)
}
