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
//	GET  /v1/snapshot       the score cache in snapshot format (cluster warm bring-up)
//	GET  /v1/metrics        every serving and engine counter (Prometheus text exposition)
//
// Three serving layers sit between the HTTP surface and the engine:
//
//   - Admission control: at most Options.MaxInFlight explanations
//     compute concurrently; at most Options.MaxQueue more wait in a fair
//     FIFO queue; beyond that requests are rejected with 429 and a
//     Retry-After priced from observed latency, so overload degrades
//     into fast rejections instead of unbounded queueing.
//   - One request table per backend, keyed by canonical pair content and
//     anytime options. One lookup answers a request: identical in-flight
//     requests attach to one computation and receive byte-identical
//     response bodies (singleflight one layer above the score cache,
//     which already deduplicates individual model calls), and with
//     Options.ResultMemo a settled deterministic computation stays in
//     the table so repeats replay its bytes (the result memo).
//   - Cancellation propagation: a dropped client connection detaches
//     the request; when the last request interested in a computation
//     detaches, its context is cancelled and the explanation aborts at
//     the next scoring checkpoint. Per-request deadline_ms/call_budget
//     knobs map onto the anytime Options and truncate instead.
//
// Observability cuts across all three: every computation runs under a
// telemetry.Trace whose per-stage wall times feed the
// certa_stage_duration_seconds histograms and the structured request
// log (Options.Logger), and every number the server reports —
// admission occupancy, coalesce hits, score-cache rates,
// embedding-memo hits, index build time — has its only copy in
// Options.Metrics (internal/telemetry), served at GET /v1/metrics.
// Timing is strictly a side channel: it never reaches core.Diagnostics
// or any Result, so the byte-identity contracts hold with tracing on.
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
	// Name identifies this serving process: when set, every request log
	// line carries worker=<Name>. Ring members use their router member
	// name (the router's worker label); standalone servers may omit it.
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
	// ResultMemo bounds how many settled computations each backend's
	// request table keeps for replay (the result memo; 0 keeps none). A
	// repeat of an already-answered deterministic request is served its
	// byte-identical body from the table — coalescing extended across
	// time — without an admission slot or any engine work. Only
	// successful computations are kept; requests carrying deadline_ms
	// never are (their truncation point is wall-clock dependent), and
	// ?debug=trace requests bypass the table entirely. In a sharded
	// ring every worker holds the memo slice for its shard of the
	// keyspace, so aggregate memo capacity grows with the worker count.
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
	// candidate index at server construction and reports it in the
	// certa_index_* series.
	Options core.Options
	// Pairs optionally registers an addressable workload (pair_index
	// requests) — typically a benchmark's test split.
	Pairs []record.Pair
	// Service optionally injects a pre-built scoring service, e.g. one
	// restored from a snapshot. When nil a fresh service is created with
	// the backend's Parallelism.
	Service *scorecache.Service
	// RestoredEntries is how many entries Service started with when it
	// was restored from a snapshot (certa_score_cache_restored_entries).
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
	// calls coalesces identical requests and replays the settled ones
	// it keeps (Options.ResultMemo).
	calls *requestTable

	// requests counts explanation requests routed to this backend
	// (coalesced joiners included); errors the ones that failed after
	// routing: the certa_backend_{requests,errors}_total series.
	requests *telemetry.Counter
	errors   *telemetry.Counter
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

	served    *telemetry.Counter
	coalesced *telemetry.Counter
	memoized  *telemetry.Counter
	rejected  *telemetry.Counter
	cancelled *telemetry.Counter
	errored   *telemetry.Counter
}

// New builds a Server over the given backends.
func New(backends []Backend, opts Options) (*Server, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("server: no backends configured")
	}
	opts = opts.withDefaults()
	logger := opts.Logger
	if opts.Name != "" {
		logger = logger.With("worker", opts.Name)
	}
	lifetime, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		backends: make(map[string]*backend, len(backends)),
		adm:      newAdmission(opts.MaxInFlight, opts.MaxQueue),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		metrics:  opts.Metrics,
		logger:   logger,
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
		s.backends[b.Name] = &backend{
			name: b.Name, left: b.Left, right: b.Right, model: b.Model,
			opts: bopts, pairs: b.Pairs, svc: svc, restored: b.RestoredEntries,
			calls: newRequestTable(opts.ResultMemo),
		}
		s.order = append(s.order, b.Name)
	}
	s.registerMetrics()
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/explain/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
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

// serveOne answers one explanation request through its backend's
// request table and admission, and returns the shared response bytes.
// tr is the computation's trace when this request led it (nil for
// replays and joiners, whose bytes were computed under another
// request's trace, and on error) — the handler folds it into the
// request log line.
func (s *Server) serveOne(ctx context.Context, b *backend, p record.Pair, k knobs, reqID string) (body []byte, joined, memoized bool, tr *telemetry.Trace, err error) {
	var led *telemetry.Trace
	body, joined, memoized, err = b.calls.do(ctx, s.lifetime, coalesceKey(b.name, k, p), k.deadlineMS == 0,
		func(compCtx context.Context) ([]byte, error) {
			out, t, cerr := s.compute(compCtx, b, p, k, reqID, false)
			led = t
			return out, cerr
		})
	switch {
	case joined:
		s.coalesced.Inc()
	case memoized:
		s.memoized.Inc()
	case err == nil:
		// Reading led is safe only once the computation has delivered a
		// result (happens-before via the call's done channel). On a
		// cancelled wait the closure may still be running — leave tr nil
		// rather than race.
		tr = led
	}
	return body, joined, memoized, tr, err
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
	s.served.Inc()
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
		s.logExplain(reqID, req.Benchmark, "", status, false, false, time.Since(start), nil, err)
		return
	}
	b, status, err := s.resolveBackend(req.Benchmark)
	if err != nil {
		s.writeError(w, status, err)
		s.logExplain(reqID, req.Benchmark, "", status, false, false, time.Since(start), nil, err)
		return
	}
	p, err := b.resolvePair(&req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		s.logExplain(reqID, b.name, "", http.StatusBadRequest, false, false, time.Since(start), nil, err)
		return
	}
	b.requests.Inc()
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
		b.errors.Inc()
		status := s.writeServeError(w, r, err)
		s.logExplain(reqID, b.name, p.Key(), status, joined, false, elapsed, nil, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Certa-Coalesced", strconv.FormatBool(joined))
	h.Set("X-Certa-Memoized", strconv.FormatBool(memoized))
	h.Set("X-Certa-Duration-Ms", strconv.FormatInt(elapsed.Milliseconds(), 10))
	w.Write(body)
	s.logExplain(reqID, b.name, p.Key(), http.StatusOK, joined, memoized, elapsed, tr, nil)
}

// nextRequestID mints a process-unique request ID. IDs are sequential
// rather than random: the request log and span trees join on them, and
// a monotone sequence keeps interleaved log lines sortable.
func (s *Server) nextRequestID() string {
	return "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
}

// logExplain writes the one-line structured summary of one explanation
// request; coalesced and memoized say which tier answered it. The stage
// breakdown appears only when this request led the computation:
// joiners and memo replays reused another request's bytes and have no
// trace of their own.
func (s *Server) logExplain(reqID, backend, pairKey string, status int, joined, memoized bool, d time.Duration, tr *telemetry.Trace, err error) {
	attrs := []any{
		"req_id", reqID,
		"backend", backend,
		"pair", pairKey,
		"status", status,
		"coalesced", joined,
		"memoized", memoized,
		"duration_ms", float64(d) / float64(time.Millisecond),
	}
	if st := stageSummary(tr); st != "" {
		attrs = append(attrs, "stages", st)
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
		// A model or engine panic reaches the client as its message
		// only; the stack goes to the log.
		var pe *workpool.PanicError
		if errors.As(err, &pe) {
			attrs = append(attrs, "stack", string(pe.Stack))
		}
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
		b.requests.Inc()
		itemID := reqID + "." + strconv.Itoa(i)
		body, _, _, _, err := s.serveOne(ctx, b, p, item.knobs(), itemID)
		if err != nil {
			b.errors.Inc()
			// A server-side failure (a panicking model, say) gets its own
			// log line, stack included; overload and cancellation do not.
			if status := s.countServeError(err); status == http.StatusInternalServerError {
				s.logExplain(itemID, b.name, p.Key(), status, false, false, time.Since(start), nil, err)
			}
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

// decode reads a JSON request body strictly: unknown fields are
// rejected, so schema drift between client and server fails loudly. The
// returned status separates an oversized body (413 — split the batch)
// from malformed JSON (400 — don't retry).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) (int, error) {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
	}
	return 0, nil
}

// decodeStrict decodes one JSON value from r, rejecting unknown fields.
func decodeStrict(r io.Reader, into any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// countServeError classifies a serveOne failure into the outcome
// counters.
func (s *Server) countServeError(err error) (status int) {
	switch {
	case errors.Is(err, errOverloaded):
		s.rejected.Inc()
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.cancelled.Inc()
		return 499 // client closed request (nginx convention); nothing readable anyway
	default:
		s.errored.Inc()
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
