package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/server"
	"certa/internal/telemetry"
)

// Keyspace declares one benchmark the ring serves: the same source
// tables and registered pair list every worker hosts under this name.
// The router needs them to resolve a request to its canonical pair
// content — the shard key — exactly the way the worker will.
type Keyspace struct {
	Name        string
	Left, Right *record.Table
	// Pairs is the addressable workload (pair_index requests), in the
	// same order the workers registered it.
	Pairs []record.Pair
}

// Options tunes the router.
type Options struct {
	// VirtualNodes per member on the placement ring (0 =
	// DefaultVirtualNodes). Must match any process that filters
	// snapshots by ring ownership.
	VirtualNodes int
	// Keyspaces declares the benchmarks the ring serves (at least one).
	Keyspaces []Keyspace
	// Client optionally overrides the HTTP client for worker calls;
	// cancellation rides the request context either way.
	Client *http.Client
	// MaxBodyBytes bounds request bodies (default 1 MiB, matching the
	// worker's own bound).
	MaxBodyBytes int64
	// HealthEvery turns on active health probing of GET /v1/healthz at
	// this interval (0 = passive only: forwards mark workers down/up).
	HealthEvery time.Duration
	// ProbeTimeout bounds one active health probe (default 1s);
	// StatsTimeout bounds one worker's /v1/metrics fetch when the
	// router's GET /v1/metrics federates the ring (default 2s).
	ProbeTimeout time.Duration
	StatsTimeout time.Duration
	// Logger receives worker up/down transitions and forward failures.
	// Nil discards log output.
	Logger *slog.Logger
	// Metrics is the registry behind GET /v1/metrics — the router-side
	// series catalog (see metrics.go). Nil gets a fresh private one.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.VirtualNodes <= 0 {
		o.VirtualNodes = DefaultVirtualNodes
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.StatsTimeout <= 0 {
		o.StatsTimeout = 2 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.Metrics == nil {
		o.Metrics = telemetry.NewRegistry()
	}
	return o
}

// workerState is one ring member plus the router's live view of it.
type workerState struct {
	member Member
	// down is the health flag: set when a forward or probe fails,
	// cleared when one succeeds. A down worker is only tried as a last
	// resort, so a stale flag degrades to extra latency, never to a
	// bricked ring.
	down   atomic.Bool
	errors *telemetry.Counter
}

// Router consistent-hash-routes explanation traffic across the ring.
// It implements http.Handler with the same surface shape as a worker:
//
//	POST /v1/explain        forwarded to the pair's shard owner (failover: next replica)
//	POST /v1/explain/batch  partitioned by shard, fanned out, merged index-aligned
//	GET  /v1/healthz        ring occupancy (RingHealthResponse)
//	GET  /v1/metrics        the router's own series plus every worker's, labeled worker="<name>"
type Router struct {
	ring      *Ring
	opts      Options
	workers   []*workerState // aligned with ring.Members() order
	keyspaces map[string]*Keyspace
	order     []string
	mux       *http.ServeMux
	logger    *slog.Logger
	metrics   *telemetry.Registry
	start     time.Time

	forwarded  *telemetry.Counter
	batchItems *telemetry.Counter
	failovers  *telemetry.Counter
	unroutable *telemetry.Counter

	httpExplain *telemetry.Histogram
	httpBatch   *telemetry.Histogram

	stop      context.CancelFunc
	probeDone chan struct{}
}

// NewRouter builds a Router over a fixed membership. Membership is
// static for the router's lifetime — adding or removing workers means
// building a new router (and re-filtering worker caches), which keeps
// placement trivially deterministic.
func NewRouter(members []Member, opts Options) (*Router, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(members, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	if len(opts.Keyspaces) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one keyspace")
	}
	rt := &Router{
		ring:      ring,
		opts:      opts,
		keyspaces: make(map[string]*Keyspace, len(opts.Keyspaces)),
		mux:       http.NewServeMux(),
		logger:    opts.Logger,
		metrics:   opts.Metrics,
		start:     time.Now(),
	}
	for i := range opts.Keyspaces {
		ks := opts.Keyspaces[i]
		if ks.Name == "" || ks.Left == nil || ks.Right == nil {
			return nil, fmt.Errorf("cluster: keyspace %q needs a name and two source tables", ks.Name)
		}
		if _, dup := rt.keyspaces[ks.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate keyspace %q", ks.Name)
		}
		rt.keyspaces[ks.Name] = &ks
		rt.order = append(rt.order, ks.Name)
	}
	for _, m := range ring.Members() {
		rt.workers = append(rt.workers, &workerState{member: m})
	}
	rt.registerMetrics()
	rt.mux.HandleFunc("POST /v1/explain", rt.handleExplain)
	rt.mux.HandleFunc("POST /v1/explain/batch", rt.handleBatch)
	rt.mux.HandleFunc("GET /v1/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /v1/metrics", rt.handleMetrics)

	probeCtx, stop := context.WithCancel(context.Background())
	rt.stop = stop
	rt.probeDone = make(chan struct{})
	if opts.HealthEvery > 0 {
		go rt.probeLoop(probeCtx, opts.HealthEvery)
	} else {
		close(rt.probeDone)
	}
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Ring exposes the placement ring (for snapshot filtering and tests).
func (rt *Router) Ring() *Ring { return rt.ring }

// Close stops the active health prober (if any) and waits for it.
func (rt *Router) Close() {
	rt.stop()
	<-rt.probeDone
}

// resolveKeyspace mirrors the worker's backend resolution, defaulting
// when the ring serves exactly one benchmark.
func (rt *Router) resolveKeyspace(name string) (*Keyspace, error) {
	if name == "" {
		if len(rt.order) == 1 {
			return rt.keyspaces[rt.order[0]], nil
		}
		return nil, fmt.Errorf("request names no benchmark and the ring serves %d", len(rt.order))
	}
	ks, ok := rt.keyspaces[name]
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	return ks, nil
}

// placeItem computes one request's replica preference list (indexes
// into rt.workers). A request the router cannot resolve — unknown
// benchmark, bad pair address — still gets a deterministic fallback
// list: the router never fabricates request-shaped errors, it forwards
// and lets the worker answer exactly as a direct server would, which
// is what keeps routed and direct responses byte-identical for error
// cases too.
func (rt *Router) placeItem(req *server.ExplainRequest) []int {
	ks, err := rt.resolveKeyspace(req.Benchmark)
	if err != nil {
		return rt.fallbackOrder()
	}
	p, err := server.ResolvePair(req, ks.Left, ks.Right, ks.Pairs)
	if err != nil {
		return rt.fallbackOrder()
	}
	return rt.ring.ReplicaIndexes(scorecache.ShardHash(scorecache.Key(p)))
}

// fallbackOrder is the replica list for unplaceable requests: every
// member in name order.
func (rt *Router) fallbackOrder() []int {
	out := make([]int, len(rt.workers))
	for i := range out {
		out[i] = i
	}
	return out
}

// attemptOrder reorders a replica preference list for forwarding:
// healthy members first (in replica order), then down members as a
// last resort — a stale down flag must cost latency, not availability.
func (rt *Router) attemptOrder(replicas []int) []int {
	out := make([]int, 0, len(replicas))
	for _, wi := range replicas {
		if !rt.workers[wi].down.Load() {
			out = append(out, wi)
		}
	}
	for _, wi := range replicas {
		if rt.workers[wi].down.Load() {
			out = append(out, wi)
		}
	}
	return out
}

func (rt *Router) markDown(ws *workerState, err error) {
	ws.errors.Inc()
	if !ws.down.Swap(true) {
		rt.logger.Warn("worker down", "worker", ws.member.Name, "url", ws.member.URL, "error", err.Error())
	}
}

func (rt *Router) markUp(ws *workerState) {
	if ws.down.Swap(false) {
		rt.logger.Info("worker up", "worker", ws.member.Name, "url", ws.member.URL)
	}
}

// healthyWorkers counts members not currently marked down.
func (rt *Router) healthyWorkers() int {
	n := 0
	for _, ws := range rt.workers {
		if !ws.down.Load() {
			n++
		}
	}
	return n
}

// readBody drains the (bounded) request body. The limit mirrors the
// worker's own MaxBodyBytes, and so does the 413 message.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.opts.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			rt.writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		}
		return nil, false
	}
	return body, true
}

// post sends one forwarded request to a worker.
func (rt *Router) post(ctx context.Context, ws *workerState, path, rawQuery string, body []byte) (*http.Response, error) {
	u := ws.member.URL + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return rt.opts.Client.Do(req)
}

// handleExplain forwards one explanation to the pair's shard owner,
// walking the replica list on worker failure. The worker's response —
// status, explanation headers and body bytes — passes through
// verbatim, so a routed response is byte-identical to a direct one.
func (rt *Router) handleExplain(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req server.ExplainRequest
	var order []int
	if err := strictDecode(body, &req); err != nil {
		// Undecodable at the router: forward anyway and let the worker
		// reject it with the canonical error body.
		order = rt.fallbackOrder()
	} else {
		order = rt.placeItem(&req)
	}
	rt.forwardTo(w, r, rt.attemptOrder(order), "/v1/explain", body)
	rt.httpExplain.Observe(time.Since(start).Seconds())
}

// forwardTo tries each worker in order until one answers, passing its
// response through verbatim. Transport failures mark the worker down
// and fall through to the next replica; worker HTTP statuses (including
// 4xx/5xx) are authoritative answers, not failover triggers.
func (rt *Router) forwardTo(w http.ResponseWriter, r *http.Request, order []int, path string, body []byte) {
	var lastErr error
	for attempt, wi := range order {
		ws := rt.workers[wi]
		rt.forwarded.Inc()
		resp, err := rt.post(r.Context(), ws, path, r.URL.RawQuery, body)
		if err != nil {
			if r.Context().Err() != nil {
				return // client gone; nothing to write, nobody to blame
			}
			rt.markDown(ws, err)
			rt.failovers.Inc()
			lastErr = err
			continue
		}
		rt.markUp(ws)
		if attempt > 0 {
			rt.logger.InfoContext(r.Context(), "failover", "path", path, "worker", ws.member.Name, "attempt", attempt+1)
		}
		rt.relay(w, resp, ws)
		return
	}
	rt.unroutable.Inc()
	rt.writeError(w, http.StatusBadGateway,
		fmt.Errorf("no reachable worker (tried %d): %v", len(order), lastErr))
}

// relay copies a worker response to the client: status,
// Content-Type, Retry-After, every X-Certa-* header the worker set, and
// the body bytes untouched.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, ws *workerState) {
	defer resp.Body.Close()
	h := w.Header()
	for k, v := range resp.Header {
		if k == "Content-Type" || k == "Retry-After" || strings.HasPrefix(k, "X-Certa-") {
			h[k] = v
		}
	}
	h.Set("X-Certa-Worker", ws.member.Name)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleBatch partitions a batch by shard, fans the per-worker
// sub-batches out concurrently, and merges the workers' raw item
// bytes index-aligned. Sub-batches carry the client's own item bytes,
// so one is never larger than the body the router accepted. The merged
// envelope is built exactly like the worker's own batch handler
// (json.Encoder over raw messages), so a routed batch response is
// byte-identical to a direct one.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { rt.httpBatch.Observe(time.Since(start).Seconds()) }()
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var breq server.BatchRequest
	var raw struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if strictDecode(body, &breq) != nil || len(breq.Requests) == 0 || strictDecode(body, &raw) != nil {
		// Not partitionable: forward whole, the worker produces the
		// canonical 400 (malformed or empty batch).
		rt.forwardTo(w, r, rt.attemptOrder(rt.fallbackOrder()), "/v1/explain/batch", body)
		return
	}

	n := len(breq.Requests)
	rt.batchItems.Add(uint64(n))
	responses := make([]json.RawMessage, n)
	replicas := make([][]int, n)
	tried := make([]map[int]bool, n)
	for i := range breq.Requests {
		replicas[i] = rt.placeItem(&breq.Requests[i])
		tried[i] = make(map[int]bool, 1)
	}

	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	// Each round groups pending items by their preferred untried worker
	// and fans the groups out concurrently; failed groups return their
	// items for the next round against the next replica. At most
	// len(workers) rounds: every round burns one replica per item.
	for len(pending) > 0 {
		groups := make(map[int][]int)
		for _, i := range pending {
			wi, ok := rt.nextReplica(replicas[i], tried[i])
			if !ok {
				rt.unroutable.Inc()
				responses[i] = rt.itemError(&breq.Requests[i], "no reachable worker for this shard")
				continue
			}
			tried[i][wi] = true
			groups[wi] = append(groups[wi], i)
		}
		if len(groups) == 0 {
			break
		}
		workerIdxs := make([]int, 0, len(groups))
		for wi := range groups {
			workerIdxs = append(workerIdxs, wi)
		}
		sort.Ints(workerIdxs)

		var wg sync.WaitGroup
		failed := make([][]int, len(workerIdxs))
		for gi, wi := range workerIdxs {
			wg.Add(1)
			go func(gi, wi int) {
				defer wg.Done()
				items := groups[wi]
				if err := rt.forwardSubBatch(r.Context(), rt.workers[wi], raw.Requests, items, responses); err != nil {
					if r.Context().Err() == nil {
						rt.markDown(rt.workers[wi], err)
						rt.failovers.Inc()
					}
					failed[gi] = items
					return
				}
				rt.markUp(rt.workers[wi])
			}(gi, wi)
		}
		wg.Wait()
		if r.Context().Err() != nil {
			return // client gone; nothing to write
		}
		pending = pending[:0]
		for _, items := range failed {
			pending = append(pending, items...)
		}
		sort.Ints(pending)
	}

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Responses []json.RawMessage `json:"responses"`
	}{responses})
}

// nextReplica picks an item's next worker: the first untried healthy
// replica, else the first untried one at all (last resort), else none.
func (rt *Router) nextReplica(replicas []int, tried map[int]bool) (int, bool) {
	for _, wi := range replicas {
		if !tried[wi] && !rt.workers[wi].down.Load() {
			return wi, true
		}
	}
	for _, wi := range replicas {
		if !tried[wi] {
			return wi, true
		}
	}
	return 0, false
}

// strictDecode decodes a request body the way the worker does,
// rejecting unknown fields.
func strictDecode(data []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// forwardSubBatch sends the given items' raw bytes to one worker as a
// batch and scatters the returned raw item bodies back into the
// index-aligned response slice.
func (rt *Router) forwardSubBatch(ctx context.Context, ws *workerState, raw []json.RawMessage, items []int, responses []json.RawMessage) error {
	var body bytes.Buffer
	body.WriteString(`{"requests":[`)
	for j, i := range items {
		if j > 0 {
			body.WriteByte(',')
		}
		body.Write(raw[i])
	}
	body.WriteString(`]}`)
	resp, err := rt.post(ctx, ws, "/v1/explain/batch", "", body.Bytes())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A worker cannot reject a well-formed sub-batch it would accept
		// directly, so any non-200 means the worker is unwell: treat it
		// like a transport failure and let the items fail over.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("worker %s: batch status %d", ws.member.Name, resp.StatusCode)
	}
	var out struct {
		Responses []json.RawMessage `json:"responses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("decoding worker batch response: %w", err)
	}
	if len(out.Responses) != len(items) {
		return fmt.Errorf("worker %s returned %d items for %d requests", ws.member.Name, len(out.Responses), len(items))
	}
	for j, i := range items {
		responses[i] = out.Responses[j]
	}
	return nil
}

// itemError fabricates a per-item failure body in the worker's own
// item-error shape. Only degraded rings mint these — healthy rings
// pass worker bytes through untouched.
func (rt *Router) itemError(req *server.ExplainRequest, msg string) json.RawMessage {
	name := req.Benchmark
	if ks, err := rt.resolveKeyspace(name); err == nil {
		name = ks.Name
	}
	body, err := json.Marshal(server.ExplainResponse{Benchmark: name, Error: msg})
	if err != nil {
		return json.RawMessage(`{"error":"encoding item error"}`)
	}
	return body
}

// handleHealthz serves the router's ring-occupancy health document.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := rt.healthyWorkers()
	status := "ok"
	switch {
	case healthy == 0:
		status = "down"
	case healthy < len(rt.workers):
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RingHealthResponse{
		Status:         status,
		UptimeMS:       float64(time.Since(rt.start)) / float64(time.Millisecond),
		Benchmarks:     append([]string(nil), rt.order...),
		Workers:        len(rt.workers),
		HealthyWorkers: healthy,
	})
}

// handleMetrics serves GET /v1/metrics: the router's own series plus
// every worker's, each worker sample labeled worker="<member name>", as
// one exposition (telemetry.WriteMerged). Worker scrapes run
// concurrently, bounded by StatsTimeout. A failed or malformed scrape
// marks the worker down and leaves its series out of this answer; a
// good one marks it up. The router's own series are read after the
// scrapes, so the health gauges reflect them.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	exps := rt.scrapeWorkers(r.Context())
	w.Header().Set("Content-Type", telemetry.ContentType)
	telemetry.WriteMerged(w, append([]*telemetry.Exposition{rt.metrics.Exposition()}, exps...)...)
}

// scrapeWorkers reads every worker's /v1/metrics concurrently, in
// member order; a failed worker's slot stays nil.
func (rt *Router) scrapeWorkers(ctx context.Context) []*telemetry.Exposition {
	ctx, cancel := context.WithTimeout(ctx, rt.opts.StatsTimeout)
	defer cancel()
	exps := make([]*telemetry.Exposition, len(rt.workers))
	var wg sync.WaitGroup
	for i, ws := range rt.workers {
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			exp, err := telemetry.Scrape(ctx, rt.opts.Client, ws.member.URL+"/v1/metrics")
			if err != nil {
				rt.markDown(ws, err)
				return
			}
			rt.markUp(ws)
			exp.AddLabel("worker", ws.member.Name)
			exps[i] = exp
		}(i, ws)
	}
	wg.Wait()
	return exps
}

// probeLoop actively probes worker liveness until Close.
func (rt *Router) probeLoop(ctx context.Context, every time.Duration) {
	defer close(rt.probeDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.ProbeOnce(ctx)
		}
	}
}

// ProbeOnce health-checks every worker once (GET /v1/healthz, bounded
// by ProbeTimeout each) and updates the down flags. The active prober
// calls it on its interval; tests and daemons may call it directly for
// a deterministic health refresh.
func (rt *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, ws := range rt.workers {
		wg.Add(1)
		go func(ws *workerState) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.opts.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, ws.member.URL+"/v1/healthz", nil)
			if err != nil {
				rt.markDown(ws, err)
				return
			}
			resp, err := rt.opts.Client.Do(req)
			if err != nil {
				rt.markDown(ws, err)
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				rt.markDown(ws, fmt.Errorf("healthz status %d", resp.StatusCode))
				return
			}
			rt.markUp(ws)
		}(ws)
	}
	wg.Wait()
}

func (rt *Router) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(server.ErrorResponse{Error: err.Error()})
}
