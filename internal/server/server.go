// Package server is the explanation-serving subsystem: an HTTP JSON API
// over the CERTA engine, built for the serving-scale deployment the
// batched pipeline (PR 1), the shared scoring service (PR 2) and the
// anytime budgets (PR 3) were preparing for.
//
// A Server hosts one or more backends — a (sources, model) pair with one
// long-lived shared scorecache.Service each — and exposes:
//
//	POST /v1/explain        one explanation (?debug=trace returns the span tree)
//	POST /v1/explain/batch  many, admitted and coalesced individually
//	GET  /v1/healthz        liveness
//	GET  /v1/stats          admission + coalescing + cache counters (JSON)
//	GET  /v1/snapshot       the score cache in snapshot format (cluster warm bring-up)
//	GET  /v1/metrics        the same state as Prometheus text exposition
//
// Three serving layers sit between the HTTP surface and the engine:
//
//   - Admission control: at most Options.MaxInFlight explanations
//     compute concurrently; at most Options.MaxQueue more wait in a fair
//     FIFO queue; beyond that requests are rejected with 429 and a
//     Retry-After priced from observed latency, so overload degrades
//     into fast rejections instead of unbounded queueing.
//   - Request coalescing: identical in-flight requests — same backend,
//     same canonical pair content, same anytime options — attach to one
//     computation and receive byte-identical response bodies
//     (singleflight one layer above the score cache, which already
//     deduplicates individual model calls).
//   - Cancellation propagation: a dropped client connection detaches
//     the request; when the last request interested in a computation
//     detaches, its context is cancelled and the explanation aborts at
//     the next scoring checkpoint. Per-request deadline_ms/call_budget
//     knobs map onto the anytime Options and truncate instead.
//
// Observability cuts across all three: every computation runs under a
// telemetry.Trace whose per-stage wall times feed the
// certa_stage_duration_seconds histograms and the structured request
// log (Options.Logger), and every ad-hoc counter the server keeps —
// admission occupancy, coalesce hits, score-cache and flip-memo rates,
// embedding-store hits, index build time — is published as a named
// series in Options.Metrics (internal/telemetry). Timing is strictly a
// side channel: it never reaches core.Diagnostics or any Result, so
// the byte-identity contracts hold with tracing on.
//
// Backends can be handed a scorecache.Service restored from a snapshot
// (Service.Restore), and the server's cache can be written back out with
// Server.Snapshot — the persistence path cmd/certa-serve wires to
// -cache-file so restarts serve warm.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"certa/internal/core"
	"certa/internal/embedding"
	"certa/internal/explain"
	"certa/internal/lattice"
	"certa/internal/neighborhood"
	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/telemetry"
	"certa/internal/workpool"
)

// Options tunes the serving layers.
type Options struct {
	// Name identifies this serving process in /v1/stats ("worker"). A
	// cluster router uses it to label per-worker rows in its aggregated
	// ring stats; standalone servers may leave it empty.
	Name string
	// MaxInFlight bounds concurrently computing explanations (default 4).
	MaxInFlight int
	// MaxQueue bounds explanations waiting for an in-flight slot
	// (default 16× MaxInFlight). Requests beyond it get 429.
	MaxQueue int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// Logger receives the structured request log: one summary line per
	// explanation request (request ID, backend, status, duration, and —
	// for the request that led the computation — the per-stage
	// breakdown). Nil discards log output.
	Logger *slog.Logger
	// Metrics is the registry backing GET /v1/metrics; the server
	// registers every series it publishes there at construction. Nil
	// gets a fresh private registry, so embedded servers (tests) never
	// collide; the daemons pass telemetry.Default to share one scrape
	// surface with their other instrumentation.
	Metrics *telemetry.Registry
	// ResultMemo bounds the per-backend memo of rendered response
	// bodies (entries; 0 disables). A repeat of an already-answered
	// deterministic request is served its byte-identical body from the
	// memo — coalescing extended across time — without an admission
	// slot or any engine work. Requests carrying deadline_ms are never
	// memoized (their truncation point is wall-clock dependent), and
	// ?debug=trace requests bypass the memo like they bypass
	// coalescing. In a sharded ring every worker holds the memo slice
	// for its shard of the keyspace, so aggregate memo capacity grows
	// with the worker count.
	ResultMemo int
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 16 * o.MaxInFlight
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.NewRegistry()
	}
	return o
}

// Backend configures one served (sources, model) pair.
type Backend struct {
	// Name addresses the backend in requests ("benchmark" field).
	Name string
	// Left and Right are the two sources explanations draw support
	// records from.
	Left, Right *record.Table
	// Model is the classifier being explained.
	Model explain.Model
	// Options are the base explainer options (Triangles, Seed,
	// Parallelism...). Per-request knobs overlay CallBudget, Deadline,
	// AugmentBudget and LatticePrune; Shared is overwritten with the backend's
	// long-lived service. When Retrieval is nil, the backend builds its
	// candidate index at server construction and reports it in
	// /v1/stats.
	Options core.Options
	// Pairs optionally registers an addressable workload (pair_index
	// requests) — typically a benchmark's test split.
	Pairs []record.Pair
	// Service optionally injects a pre-built scoring service, e.g. one
	// restored from a snapshot. When nil a fresh service is created with
	// the backend's Parallelism.
	Service *scorecache.Service
	// RestoredEntries reports (for /v1/stats) how many entries Service
	// started with when it was restored from a snapshot.
	RestoredEntries int
}

// backend is the resolved runtime form.
type backend struct {
	name        string
	left, right *record.Table
	model       explain.Model
	opts        core.Options
	pairs       []record.Pair
	svc         *scorecache.Service
	restored    int
	// memo replays rendered response bodies for repeat deterministic
	// requests (nil when Options.ResultMemo is 0).
	memo *resultMemo

	// requests counts explanation requests routed to this backend
	// (coalesced joiners included); errors the ones that failed after
	// routing. Both feed /v1/stats and the certa_backend_*_total series.
	requests atomic.Int64
	errors   atomic.Int64
	// latency is the certa_explain_duration_seconds{backend=...} series:
	// per-computation latency, admission wait excluded.
	latency *telemetry.Histogram
}

// Server is the HTTP explanation-serving subsystem. It implements
// http.Handler; plug it into any http.Server.
type Server struct {
	opts     Options
	backends map[string]*backend
	order    []string
	adm      *admission
	coal     *coalescer
	mux      *http.ServeMux
	start    time.Time
	metrics  *telemetry.Registry
	logger   *slog.Logger
	reqSeq   atomic.Int64

	// httpExplain/httpBatch are the certa_http_request_duration_seconds
	// series: whole-handler latency including admission wait and
	// coalescing, one series per endpoint.
	httpExplain *telemetry.Histogram
	httpBatch   *telemetry.Histogram

	// lifetime is the server's base context: computations are derived
	// from it so Close aborts everything in flight.
	lifetime context.Context
	stop     context.CancelFunc

	served    atomic.Int64
	coalesced atomic.Int64
	memoized  atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
	errored   atomic.Int64
}

// New builds a Server over the given backends.
func New(backends []Backend, opts Options) (*Server, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("server: no backends configured")
	}
	opts = opts.withDefaults()
	lifetime, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		backends: make(map[string]*backend, len(backends)),
		adm:      newAdmission(opts.MaxInFlight, opts.MaxQueue),
		coal:     newCoalescer(),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		metrics:  opts.Metrics,
		logger:   opts.Logger,
		lifetime: lifetime,
		stop:     stop,
	}
	for _, b := range backends {
		if b.Name == "" || b.Left == nil || b.Right == nil || b.Model == nil {
			stop()
			return nil, fmt.Errorf("server: backend %q needs a name, two sources and a model", b.Name)
		}
		if _, dup := s.backends[b.Name]; dup {
			stop()
			return nil, fmt.Errorf("server: duplicate backend %q", b.Name)
		}
		svc := b.Service
		if svc == nil {
			svc = scorecache.NewService(b.Model, scorecache.ServiceOptions{
				Parallelism: b.Options.Parallelism,
			})
		} else if svc.Name() != b.Model.Name() {
			stop()
			return nil, fmt.Errorf("server: backend %q service wraps model %q, not %q",
				b.Name, svc.Name(), b.Model.Name())
		}
		// The candidate retrieval index is part of backend startup: built
		// here once (unless the caller injected a shared one) so request
		// handling streams candidates from prebuilt postings instead of
		// re-tokenizing the sources per explanation.
		bopts := b.Options
		if bopts.Retrieval == nil {
			bopts.Retrieval = neighborhood.NewSources(b.Left, b.Right)
		}
		var memo *resultMemo
		if opts.ResultMemo > 0 {
			memo = newResultMemo(opts.ResultMemo)
		}
		s.backends[b.Name] = &backend{
			name: b.Name, left: b.Left, right: b.Right, model: b.Model,
			opts: bopts, pairs: b.Pairs, svc: svc, restored: b.RestoredEntries,
			memo: memo,
		}
		s.order = append(s.order, b.Name)
	}
	s.registerMetrics()
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/explain/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.Handle("GET /v1/metrics", s.metrics.Handler())
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close aborts every in-flight computation. Call it after the HTTP
// server has drained (http.Server.Shutdown) — and before Snapshot, so
// the snapshot sees a quiescent store.
func (s *Server) Close() { s.stop() }

// Snapshot writes the named backend's score cache in the
// scorecache.Service binary snapshot format.
func (s *Server) Snapshot(name string, w io.Writer) (int, error) {
	b, ok := s.backends[name]
	if !ok {
		return 0, fmt.Errorf("server: no backend %q", name)
	}
	return b.svc.Snapshot(w)
}

// CacheService exposes the named backend's shared scoring service (for
// instrumentation and tests).
func (s *Server) CacheService(name string) (*scorecache.Service, bool) {
	b, ok := s.backends[name]
	if !ok {
		return nil, false
	}
	return b.svc, true
}

// resolveBackend picks the requested backend, defaulting when the server
// hosts exactly one. The status distinguishes a missing resource (an
// unknown name, 404) from a malformed request (an ambiguous empty name,
// 400).
func (s *Server) resolveBackend(name string) (*backend, int, error) {
	if name == "" {
		if len(s.order) == 1 {
			return s.backends[s.order[0]], 0, nil
		}
		return nil, http.StatusBadRequest,
			fmt.Errorf("request names no benchmark and the server hosts %d", len(s.order))
	}
	b, ok := s.backends[name]
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown benchmark %q (hosting %v)", name, s.order)
	}
	return b, 0, nil
}

// serveOne runs one explanation request through the result memo,
// coalescing and admission, and returns the shared response bytes. tr
// is the computation's trace when this request led it (nil for memo
// hits and joiners, whose bytes were computed under another request's
// trace, and on error) — the handler folds it into the request log
// line. Deadline-bearing requests skip the memo in both directions:
// their truncation point depends on the wall clock, so neither may a
// stale body answer them nor may their body be replayed later.
func (s *Server) serveOne(ctx context.Context, b *backend, p record.Pair, k knobs, reqID string) (body []byte, joined, memoized bool, tr *telemetry.Trace, err error) {
	key := coalesceKey(b.name, k, p)
	deterministic := k.deadlineMS == 0
	if deterministic {
		if body, ok := b.memo.get(key); ok {
			s.memoized.Add(1)
			return body, false, true, nil, nil
		}
	}
	for {
		var led *telemetry.Trace
		body, joined, err = s.coal.do(ctx, s.lifetime, key, func(compCtx context.Context) ([]byte, error) {
			out, t, cerr := s.compute(compCtx, b, p, k, reqID, false)
			led = t
			return out, cerr
		})
		if joined && errors.Is(err, context.Canceled) && ctx.Err() == nil && s.lifetime.Err() == nil {
			// We attached to a computation whose every requester had
			// disconnected just before we arrived; its cancellation is not
			// ours. Re-issue — the key has been cleared, so this caller
			// leads a fresh computation. joined deliberately resets: what
			// this request reports is how its final attempt was answered.
			continue
		}
		if joined {
			s.coalesced.Add(1)
		}
		if err == nil {
			// Reading led is safe only once the computation has delivered a
			// result (happens-before via the coalescer's result channel). On
			// a cancelled wait the closure may still be running — leave tr
			// nil rather than race.
			tr = led
			if deterministic {
				b.memo.put(key, body)
			}
		}
		return body, joined, false, tr, err
	}
}

// compute runs the explanation under an admission slot and marshals the
// shared response body. Every computation runs under a fresh
// telemetry.Trace: its stage totals feed the per-stage latency
// histograms, and — when wantTree is set (?debug=trace) — the span
// tree rides the response. Tracing is a wall-clock side channel; the
// Result bytes are identical with and without it.
func (s *Server) compute(ctx context.Context, b *backend, p record.Pair, k knobs, reqID string, wantTree bool) ([]byte, *telemetry.Trace, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return nil, nil, err
	}
	defer s.adm.release()

	opts := b.opts
	opts.Shared = b.svc
	if k.callBudget > 0 {
		opts.CallBudget = k.callBudget
	}
	if k.deadlineMS > 0 {
		opts.Deadline = time.Duration(k.deadlineMS) * time.Millisecond
	}
	if k.augmentBudget > 0 {
		opts.AugmentBudget = k.augmentBudget
	}
	if k.pruneThreshold > 0 {
		opts.LatticePrune = lattice.PrunePolicy{Threshold: k.pruneThreshold, MinLevels: k.pruneMinLevels}
	}
	tr := telemetry.New()
	tr.SetRequestID(reqID)
	start := time.Now()
	res, err := core.New(b.left, b.right, opts).ExplainContext(telemetry.WithTrace(ctx, tr), b.model, p)
	if err != nil {
		return nil, nil, err
	}
	elapsed := time.Since(start)
	tr.Root().End()
	s.adm.observe(elapsed)
	s.served.Add(1)
	b.latency.Observe(elapsed.Seconds())
	s.foldStages(b, tr)

	resp := ExplainResponse{
		Benchmark: b.name,
		PairKey:   p.Key(),
		Result:    shapeTopK(res, k.topK),
	}
	if wantTree {
		resp.Trace = tr.Tree()
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, nil, fmt.Errorf("marshaling response: %w", err)
	}
	return body, tr, nil
}

// foldStages folds one computation's trace into the per-stage latency
// histograms, iterating the sorted stage names so series are touched
// in a deterministic order.
func (s *Server) foldStages(b *backend, tr *telemetry.Trace) {
	stages := tr.Stages()
	for _, name := range telemetry.StageNames(stages) {
		s.stageHist(b.name, name).Observe(stages[name].Duration.Seconds())
	}
}

// shapeTopK trims the result to the k most salient attributes and at
// most k counterfactuals. The trim is deterministic (Saliency.Ranked
// breaks ties by attribute order), so coalesced and repeated requests
// still receive byte-identical documents.
func shapeTopK(res *core.Result, k int) *core.Result {
	if k <= 0 {
		return res
	}
	shaped := *res
	if res.Saliency != nil {
		top := res.Saliency.TopK(k)
		sal := *res.Saliency
		sal.Scores = make(map[record.AttrRef]float64, len(top))
		for _, ref := range top {
			sal.Scores[ref] = res.Saliency.Scores[ref]
		}
		shaped.Saliency = &sal
	}
	if len(shaped.Counterfactuals) > k {
		shaped.Counterfactuals = shaped.Counterfactuals[:k]
	}
	return &shaped
}

// handleExplain serves POST /v1/explain. With ?debug=trace the request
// bypasses coalescing (wall times are per-computation; a shared body
// could not carry them) but still holds an admission slot, and the
// response embeds the span tree.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := s.nextRequestID()
	w.Header().Set("X-Certa-Request-Id", reqID)
	var req ExplainRequest
	if status, err := s.decode(w, r, &req); err != nil {
		s.writeError(w, status, err)
		s.logExplain(reqID, req.Benchmark, "", status, false, time.Since(start), nil, err)
		return
	}
	b, status, err := s.resolveBackend(req.Benchmark)
	if err != nil {
		s.writeError(w, status, err)
		s.logExplain(reqID, req.Benchmark, "", status, false, time.Since(start), nil, err)
		return
	}
	p, err := b.resolvePair(&req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		s.logExplain(reqID, b.name, "", http.StatusBadRequest, false, time.Since(start), nil, err)
		return
	}
	b.requests.Add(1)
	var (
		body     []byte
		joined   bool
		memoized bool
		tr       *telemetry.Trace
	)
	if r.URL.Query().Get("debug") == "trace" {
		body, tr, err = s.compute(r.Context(), b, p, req.knobs(), reqID, true)
	} else {
		body, joined, memoized, tr, err = s.serveOne(r.Context(), b, p, req.knobs(), reqID)
	}
	elapsed := time.Since(start)
	s.httpExplain.Observe(elapsed.Seconds())
	if err != nil {
		b.errors.Add(1)
		status := s.writeServeError(w, r, err)
		s.logExplain(reqID, b.name, p.Key(), status, joined, elapsed, nil, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Certa-Coalesced", strconv.FormatBool(joined))
	h.Set("X-Certa-Memoized", strconv.FormatBool(memoized))
	h.Set("X-Certa-Duration-Ms", strconv.FormatInt(elapsed.Milliseconds(), 10))
	w.Write(body)
	s.logExplain(reqID, b.name, p.Key(), http.StatusOK, joined, elapsed, tr, nil)
}

// nextRequestID mints a process-unique request ID. IDs are sequential
// rather than random: the request log and span trees join on them, and
// a monotone sequence keeps interleaved log lines sortable.
func (s *Server) nextRequestID() string {
	return "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
}

// logExplain writes the one-line structured summary of one explanation
// request. The stage breakdown appears only when this request led the
// computation: joiners reused another request's bytes and have no
// trace of their own.
func (s *Server) logExplain(reqID, backend, pairKey string, status int, joined bool, d time.Duration, tr *telemetry.Trace, err error) {
	attrs := []any{
		"req_id", reqID,
		"backend", backend,
		"pair", pairKey,
		"status", status,
		"coalesced", joined,
		"duration_ms", float64(d) / float64(time.Millisecond),
	}
	if st := stageSummary(tr); st != "" {
		attrs = append(attrs, "stages", st)
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
		s.logger.Warn("explain", attrs...)
		return
	}
	s.logger.Info("explain", attrs...)
}

// stageSummary renders a trace's stage totals as a compact
// deterministic "name=durations[/items]" list, sorted by stage name.
func stageSummary(tr *telemetry.Trace) string {
	if tr == nil {
		return ""
	}
	stages := tr.Stages()
	var b strings.Builder
	for _, name := range telemetry.StageNames(stages) {
		st := stages[name]
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1fms", name, float64(st.Duration)/float64(time.Millisecond))
		if st.Items > 0 {
			fmt.Fprintf(&b, "/%d", st.Items)
		}
	}
	return b.String()
}

// handleBatch serves POST /v1/explain/batch: items fan out over a
// bounded worker pool (so a huge batch cannot spawn a goroutine per
// item), each through the same admission/coalescing path as a single
// request — identical items in one batch (or across batches) share one
// computation — and per-item failures, overload included, show up as
// per-item errors. Successful items reuse the computation's shared
// response bytes verbatim (json.RawMessage), which also keeps coalesced
// duplicates byte-identical by construction.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := s.nextRequestID()
	w.Header().Set("X-Certa-Request-Id", reqID)
	var req BatchRequest
	if status, err := s.decode(w, r, &req); err != nil {
		s.writeError(w, status, err)
		return
	}
	if len(req.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("batch has no requests"))
		return
	}
	n := len(req.Requests)
	responses := make([]json.RawMessage, n)
	var failed atomic.Int64
	itemError := func(i int, benchmark, pairKey string, msg string) {
		failed.Add(1)
		body, err := json.Marshal(ExplainResponse{Benchmark: benchmark, PairKey: pairKey, Error: msg})
		if err != nil {
			body = []byte(`{"error":"encoding item error"}`)
		}
		responses[i] = body
	}
	// Workers beyond the admission capacity would only pile up in its
	// queue (or be rejected), so that capacity bounds useful concurrency.
	// Item failures are reported in place and never returned, so
	// workpool's fail-fast path stays dormant and every item runs —
	// unless the client disconnects: the request context cancels
	// EachContext, which stops dispatching the remaining items instead
	// of pushing each of them through admission for a caller that is
	// gone (the severed-context bug certa-lint's ctxthread analyzer
	// flags).
	workers := s.opts.MaxInFlight + s.opts.MaxQueue
	workpool.EachContext(r.Context(), n, workers, func(ctx context.Context, i int) error {
		item := &req.Requests[i]
		b, _, err := s.resolveBackend(item.Benchmark)
		if err != nil {
			itemError(i, item.Benchmark, "", err.Error())
			return nil
		}
		p, err := b.resolvePair(item)
		if err != nil {
			itemError(i, b.name, "", err.Error())
			return nil
		}
		b.requests.Add(1)
		body, _, _, _, err := s.serveOne(ctx, b, p, item.knobs(), reqID+"."+strconv.Itoa(i))
		if err != nil {
			b.errors.Add(1)
			s.countServeError(err)
			itemError(i, b.name, p.Key(), err.Error())
			return nil
		}
		responses[i] = body
		return nil
	})
	elapsed := time.Since(start)
	s.httpBatch.Observe(elapsed.Seconds())
	s.logger.InfoContext(r.Context(), "batch",
		"req_id", reqID,
		"items", n,
		"failed", failed.Load(),
		"duration_ms", float64(elapsed)/float64(time.Millisecond))
	if r.Context().Err() != nil {
		return // client gone; nothing to write
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Responses []json.RawMessage `json:"responses"`
	}{responses})
}

// handleHealthz serves GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(HealthResponse{
		Status:   "ok",
		UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond),
		Backends: append([]string(nil), s.order...),
	})
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// handleSnapshot serves GET /v1/snapshot?benchmark=NAME: the named
// backend's score cache streamed in the scorecache binary snapshot
// format (octet-stream). This is the donor side of the cluster's warm
// bring-up — a joining worker pulls it and restores the slice of keys
// the ring assigns it (scorecache.RestoreFunc) before taking traffic.
// Concurrent scoring may proceed while the snapshot streams; in-flight
// entries are simply skipped. The CRC trailer inside the format is the
// consumer's integrity check: if this stream dies mid-write the
// partial body fails the consumer's checksum and it starts cold.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	b, status, err := s.resolveBackend(r.URL.Query().Get("benchmark"))
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Certa-Backend", b.name)
	n, err := b.svc.Snapshot(w)
	if err != nil {
		// Headers are already gone, so there is no status to change;
		// the truncated body fails the consumer's CRC check.
		s.logger.WarnContext(r.Context(), "snapshot", "backend", b.name, "error", err.Error())
		return
	}
	s.logger.InfoContext(r.Context(), "snapshot", "backend", b.name, "entries", n)
}

// embeddingStatser is implemented by backend models that keep a
// matcher-lifetime embedding store (see embedding.Store).
type embeddingStatser interface {
	EmbeddingStats() embedding.StoreStats
}

// Stats assembles the server's counters.
func (s *Server) Stats() StatsResponse {
	inflight, queued, highWater, ewma := s.adm.snapshot()
	out := StatsResponse{
		Worker:         s.opts.Name,
		UptimeMS:       float64(time.Since(s.start)) / float64(time.Millisecond),
		Served:         s.served.Load(),
		Coalesced:      s.coalesced.Load(),
		Memoized:       s.memoized.Load(),
		Rejected:       s.rejected.Load(),
		Cancelled:      s.cancelled.Load(),
		Errors:         s.errored.Load(),
		InFlight:       inflight,
		Queued:         queued,
		QueueHighWater: highWater,
		EwmaLatencyMS:  ewma,
		Backends:       make(map[string]BackendStats, len(s.backends)),
	}
	for name, b := range s.backends {
		st := b.svc.Stats()
		bs := BackendStats{
			Model:           b.model.Name(),
			Requests:        b.requests.Load(),
			Errors:          b.errors.Load(),
			Entries:         b.svc.Len(),
			RestoredEntries: b.restored,
			Lookups:         st.Lookups,
			Hits:            st.Hits,
			Misses:          st.Misses,
			Batches:         st.Batches,
			Evictions:       st.Evictions,
			HitRate:         st.HitRate(),
			FlipLookups:     st.FlipLookups,
			FlipHits:        st.FlipHits,
			FlipHitRate:     st.FlipHitRate(),
		}
		if es, ok := b.model.(embeddingStatser); ok {
			est := es.EmbeddingStats()
			if est.Lookups > 0 || est.Entries > 0 {
				bs.Embedding = &EmbeddingStats{
					Lookups:   est.Lookups,
					Hits:      est.Hits,
					Misses:    est.Misses,
					Evictions: est.Evictions,
					Entries:   est.Entries,
					HitRate:   est.HitRate(),
				}
			}
		}
		if ist, ok := b.opts.Retrieval.Stats(); ok {
			bs.Index = &IndexStats{
				Records:        ist.Records,
				DistinctTokens: ist.DistinctTokens,
				BuildMS:        ist.BuildMS,
			}
		}
		if b.memo != nil {
			lookups, hits, entries := b.memo.stats()
			ms := &ResultMemoStats{
				Capacity: b.memo.capacity,
				Entries:  entries,
				Lookups:  lookups,
				Hits:     hits,
			}
			if lookups > 0 {
				ms.HitRate = float64(hits) / float64(lookups)
			}
			bs.ResultMemo = ms
		}
		out.Backends[name] = bs
	}
	return out
}

// decode reads a JSON request body strictly: unknown fields are
// rejected, so schema drift between client and server fails loudly. The
// returned status separates an oversized body (413 — split the batch)
// from malformed JSON (400 — don't retry).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
	}
	return 0, nil
}

// countServeError classifies a serveOne failure into the stats counters.
func (s *Server) countServeError(err error) (status int) {
	switch {
	case errors.Is(err, errOverloaded):
		s.rejected.Add(1)
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Add(1)
		return 499 // client closed request (nginx convention); nothing readable anyway
	default:
		s.errored.Add(1)
		return http.StatusInternalServerError
	}
}

// writeServeError reports a serveOne failure over HTTP, returning the
// status for the request log line.
func (s *Server) writeServeError(w http.ResponseWriter, r *http.Request, err error) int {
	status := s.countServeError(err)
	if r.Context().Err() != nil {
		return status // client gone; the status would never arrive
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
	}
	s.writeError(w, status, err)
	return status
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}
