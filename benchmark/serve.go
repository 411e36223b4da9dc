package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	"certa"
	"certa/internal/cluster"
)

// Shares of -seconds the serve phases take. The end-to-end run is one
// caller's phase for the whole of -seconds. The traced run times half
// as long a caller's phase between two /v1/metrics scrapes, then climbs
// the open-loop ladder a step at a time.
const (
	tracedShare = 0.5
	ladderShare = 0.15
	// zipfS is the skew of the request stream over the pool.
	zipfS = 1.1
	// ringMemo is each ring worker's result memo, in bodies: a quarter
	// of its ~64-pair shard, which replays about 70% of the Zipf stream.
	// The share of misses must stay well clear of 10%: p90 then lies
	// inside the recomputed requests' latencies rather than on the edge
	// between replays (~1 ms) and recomputes (5–20 ms), where it jumped
	// between 3 and 16 ms from run to run with a 32-body memo (15%
	// misses).
	ringMemo = 16
)

// serveSpec is one serving workload: pair_index requests drawn
// Zipf(zipfS) over the pool.
type serveSpec struct {
	name    string
	start   func(p profile) (*target, error)
	rates   []float64 // the open-loop ladder of the traced run
	limitMS float64   // the p90 limit of the ladder's SLO
	// maxRate bounds the rate one caller reaches, about twice what it
	// does on a 2-vCPU machine; it sizes the request sequence a phase
	// draws from.
	maxRate float64
}

var (
	serveZipf = serveSpec{
		name: "serve-zipf", start: startServer,
		rates: []float64{40, 80, 160}, limitMS: 100, maxRate: 150,
	}
	ringZipf = serveSpec{
		name: "ring-zipf", start: startRing,
		rates: []float64{40, 80, 160, 320}, limitMS: 100, maxRate: 400,
	}
)

// listener serves one handler on an ephemeral 127.0.0.1 port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the listener, drops its connections and waits for the
// serving goroutine to return.
func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// worker is one serving process: its own deployment and server.
type worker struct {
	d   *deployment
	srv *certa.Server
	ln  *listener
}

func startWorker(d *deployment, name string, inflight, memo int) (*worker, error) {
	srv, err := certa.NewServer([]certa.ServerBackend{{
		Name: backendName, Left: d.bench.Left, Right: d.bench.Right, Model: d.model,
		Options: d.options(), Pairs: d.pool, Service: d.newService(),
	}}, certa.ServerOptions{Name: name, MaxInFlight: inflight, MaxQueue: 64, ResultMemo: memo})
	if err != nil {
		return nil, err
	}
	ln, err := listen(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &worker{d: d, srv: srv, ln: ln}, nil
}

func (w *worker) close() {
	w.ln.close()
	w.srv.Close()
}

// target is what a serve workload's generator talks to: one server,
// or a router in front of its workers.
type target struct {
	url       string
	workers   []*worker
	routerURL string   // "" without a ring
	stops     []func() // run in reverse order by close
}

// close stops everything the target started, last started first.
func (t *target) close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
}

func (t *target) add(w *worker) {
	t.workers = append(t.workers, w)
	t.stops = append(t.stops, w.close)
}

// misses is the unique model calls the workers have paid so far.
func (t *target) misses() int {
	n := 0
	for _, w := range t.workers {
		svc, _ := w.srv.CacheService(backendName)
		n += svc.Stats().Misses
	}
	return n
}

// startServer is one certa-serve without a result memo, sized to the
// machine: MaxInFlight = nproc explanations at once, each on one
// goroutine (engineParallelism).
func startServer(p profile) (*target, error) {
	d, err := newDeployment(p.poolSeeds)
	if err != nil {
		return nil, err
	}
	w, err := startWorker(d, "", p.nproc, 0)
	if err != nil {
		return nil, err
	}
	t := &target{url: w.ln.url}
	t.add(w)
	return t, nil
}

// startRing is certa-router over two workers, each sized to half the
// machine (MaxInFlight = max(1, nproc/2)) and holding a result memo of
// ringMemo bodies. Each worker and
// the router build their own state, as separate processes would.
func startRing(p profile) (*target, error) {
	per := max(1, p.nproc/2)
	t := &target{}
	var members []cluster.Member
	for i := 0; i < 2; i++ {
		d, err := newDeployment(p.poolSeeds)
		if err != nil {
			t.close()
			return nil, err
		}
		name := fmt.Sprintf("w%d", i)
		w, err := startWorker(d, name, per, ringMemo)
		if err != nil {
			t.close()
			return nil, err
		}
		t.add(w)
		members = append(members, cluster.Member{Name: name, URL: w.ln.url})
	}
	ks, err := newKeyspace(p.poolSeeds)
	if err != nil {
		t.close()
		return nil, err
	}
	rt, err := cluster.NewRouter(members, cluster.Options{Keyspaces: []cluster.Keyspace{{
		Name: backendName, Left: ks.bench.Left, Right: ks.bench.Right, Pairs: ks.pool,
	}}})
	if err != nil {
		t.close()
		return nil, err
	}
	t.stops = append(t.stops, rt.Close)
	ln, err := listen(rt)
	if err != nil {
		t.close()
		return nil, err
	}
	t.stops = append(t.stops, ln.close)
	t.url, t.routerURL = ln.url, ln.url
	return t, nil
}

// serveRun is one serve workload run: the target, the pool with its
// prebuilt request bodies, and the tallies.
type serveRun struct {
	ctx    context.Context
	p      profile
	spec   serveSpec
	t      *target
	client *http.Client
	rng    *rand.Rand

	pairs  []certa.Pair
	bodies [][]byte
	zipf   *rand.Zipf
	seen   map[int]bool
	first  *firstBodies

	attempted, failed int
}

func runServe(ctx context.Context, p profile, traced bool, spec serveSpec) (*outcome, error) {
	r, setupS, err := timedSetup(p.setupReps, func() (*serveRun, error) { return newServeRun(ctx, p, spec) }, (*serveRun).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	warmS, err := timed(r.warm)
	if err != nil {
		return nil, err
	}
	reportSetup(spec.name, setupS, warmS, p.setupReps)
	setupS += warmS

	out := &outcome{}
	if traced {
		in, err := r.tracedLadder()
		if err != nil {
			return nil, err
		}
		out.values = layerValues(in)
	} else {
		st, err := r.callerPhase(1)
		if err != nil {
			return nil, err
		}
		reportSamples(spec.name, st.successes, st.supported)
		out.values = values{
			"setup_s":              setupS,
			"expl_per_s":           ratio(float64(st.successes), st.lastDoneMS/1000),
			"p50_ms":               st.p50,
			"p90_ms":               st.p90,
			"model_calls_per_expl": ratio(float64(r.t.misses()), float64(len(r.seen))),
			"heap_live_mb":         heapLiveMB(),
		}
	}
	out.attempted, out.failed = r.attempted, r.failed
	out.checkErr = r.verify()
	return out, nil
}

// newServeRun starts spec's target and prebuilds a request body for
// every pair of the pool, so no phase spends its time encoding.
func newServeRun(ctx context.Context, p profile, spec serveSpec) (*serveRun, error) {
	t, err := spec.start(p)
	if err != nil {
		return nil, err
	}
	r := &serveRun{
		ctx: ctx, p: p, spec: spec, t: t,
		client: newClient(p.nproc),
		rng:    rand.New(rand.NewSource(p.seed)),
		pairs:  t.workers[0].d.pool,
		seen:   make(map[int]bool),
		first:  newFirstBodies(),
	}
	// Every phase's sample of pairs is drawn the same way on every run;
	// the run's seed only orders it (see draw), so run-to-run spread is
	// not a different mix of cheap and costly requests. A timed phase
	// sends a prefix of its ordered sample.
	r.zipf = rand.NewZipf(rand.New(rand.NewSource(deploySeed)), zipfS, 1, uint64(len(r.pairs)-1))
	for i := range r.pairs {
		b, err := json.Marshal(certa.ExplainRequest{PairIndex: &i})
		if err != nil {
			r.close()
			return nil, err
		}
		r.bodies = append(r.bodies, b)
	}
	return r, nil
}

func (r *serveRun) close() {
	r.client.CloseIdleConnections()
	r.t.close()
}

// warm is the warm-up, the last part of set-up: one pass over the
// pool, which fills the score caches and the flip memo as on a server
// that has been up a while, then a stretch of the Zipf stream, which
// brings the result memos to their steady state. Neither is seeded, so
// every run's measured phase starts from the same state. A failed
// request fails the set-up.
func (r *serveRun) warm() error {
	seq := make([]int, len(r.pairs))
	for i := range seq {
		seq[i] = i
	}
	seq = append(seq, r.mixed(r.sized(2*float64(len(r.pairs))))...)
	if _, err := r.phase(load{conns: r.p.nproc}, seq); err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", r.failed, len(seq))
	}
	return nil
}

// sized applies the profile's floor to a request count.
func (r *serveRun) sized(n float64) int {
	if r.p.quick {
		return quickRequests
	}
	return max(int(math.Round(n)), 1)
}

// stepSize is the request count of an open-loop step at rate taking
// share of the run, raised so p90 is supported.
func (r *serveRun) stepSize(rate, share float64) int {
	if r.p.quick {
		return quickRequests
	}
	return max(r.sized(rate*share*r.p.seconds), minSamples)
}

// mixed returns the pair indices of the next n requests of the fixed
// mix: n Zipf draws over the pool.
func (r *serveRun) mixed(n int) []int {
	seq := make([]int, n)
	for k := range seq {
		seq[k] = int(r.zipf.Uint64())
	}
	return seq
}

// draw is mixed(n) in the run's seeded order.
func (r *serveRun) draw(n int) []int {
	seq := r.mixed(n)
	r.rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// load is how a phase sends its requests: open loop at rate, or, when
// rate is 0, closed loop over conns callers for at most within (0:
// until every request of the sequence is sent).
type load struct {
	rate   float64
	conns  int
	within time.Duration
}

// callerPhase is a closed loop of one caller, which sends its next
// request when the last one is answered, for share of the run. It
// draws its requests from the fixed mix in the run's order. Bounding it
// by time, not by a request count, keeps a run's length fixed on a
// slow machine.
func (r *serveRun) callerPhase(share float64) (stepStats, error) {
	if r.p.quick {
		return r.phase(load{conns: 1}, r.draw(quickRequests))
	}
	within := time.Duration(share * r.p.seconds * float64(time.Second))
	return r.phase(load{conns: 1, within: within}, r.draw(r.sized(r.spec.maxRate*within.Seconds())))
}

// phase sends requests for the pair indices of seq under l, then
// checks the answers (after timing). A timed closed loop may leave the
// tail of seq unsent.
func (r *serveRun) phase(l load, seq []int) (stepStats, error) {
	got := make([][]byte, len(seq))
	send := func(ctx context.Context, k int) error {
		body, err := post(ctx, r.client, r.t.url+"/v1/explain", r.bodies[seq[k]])
		got[k] = body
		return err
	}
	var (
		samples []sample
		sched   time.Duration
	)
	if l.rate > 0 {
		interval := time.Duration(float64(time.Second) / l.rate)
		samples = openLoop(r.ctx, wallClock{}, interval, len(seq), send)
		sched = time.Duration(len(seq)) * interval
	} else {
		samples = closedLoop(r.ctx, wallClock{}, l.conns, len(seq), l.within, send)
	}
	if err := r.ctx.Err(); err != nil {
		return stepStats{}, err
	}
	var firstErr error
	failed := 0
	for k, i := range seq[:len(samples)] {
		r.attempted++
		r.seen[i] = true
		if err := samples[k].err; err != nil {
			if failed == 0 {
				firstErr = fmt.Errorf("request for %s: %w", r.pairs[i].Key(), err)
			}
			failed++
			continue
		}
		r.first.see(r.pairs, i, got[k])
	}
	if failed > 0 {
		r.failed += failed
		warnf("%s: %d of %d requests failed, the first: %v", r.spec.name, failed, len(samples), firstErr)
	}
	return summarize(step{duration: sched, samples: samples}), nil
}

// tracedLadder first runs a caller's phase, as the end-to-end run does
// but half as long, between two /v1/metrics scrapes whose deltas give
// the per-layer figures. Then it climbs the open-loop ladder to find
// the highest rate that meets the SLO, stopping at the first step that
// does not.
func (r *serveRun) tracedLadder() (layerInput, error) {
	before, err := r.scrapeAll()
	if err != nil {
		return layerInput{}, err
	}
	first, err := r.callerPhase(tracedShare)
	if err != nil {
		return layerInput{}, err
	}
	after, err := r.scrapeAll()
	if err != nil {
		return layerInput{}, err
	}
	in := r.scrapeInput(before, after, first)

	rates := r.spec.rates
	var stats []stepStats
	for i, rate := range rates {
		if i > 0 {
			if ok, why := meetsSLO(stats[i-1], r.spec.limitMS); !ok {
				warnf("%s: %g req/s misses the SLO (%s)", r.spec.name, rates[i-1], why)
				break
			}
		}
		st, err := r.phase(load{rate: rate}, r.draw(r.stepSize(rate, ladderShare)))
		if err != nil {
			return layerInput{}, err
		}
		stats = append(stats, st)
		in.lateMaxMS = max(in.lateMaxMS, st.lateMaxMS)
	}
	in.sloRPS = sloRate(rates, stats, r.spec.limitMS)
	return in, nil
}

// scrapes holds one /v1/metrics scrape per worker and of the router.
type scrapes struct {
	workers []scrape
	router  scrape
}

func (r *serveRun) scrapeAll() (scrapes, error) {
	var out scrapes
	read := func(url string) (scrape, error) {
		body, err := get(r.ctx, http.DefaultClient, url+"/v1/metrics")
		if err != nil {
			return nil, err
		}
		return parseExposition(bytes.NewReader(body))
	}
	for _, w := range r.t.workers {
		sc, err := read(w.ln.url)
		if err != nil {
			return out, err
		}
		out.workers = append(out.workers, sc)
	}
	if r.t.routerURL != "" {
		sc, err := read(r.t.routerURL)
		if err != nil {
			return out, err
		}
		out.router = sc
	}
	return out, nil
}

// scrapeInput maps one step's scrape deltas onto the layer figures.
func (r *serveRun) scrapeInput(before, after scrapes, st stepStats) layerInput {
	var deltas []scrape
	in := layerInput{expl: float64(st.successes), lateMaxMS: st.lateMaxMS}
	for i := range after.workers {
		d := delta(before.workers[i], after.workers[i])
		deltas = append(deltas, d)
		in.shardRequests = append(in.shardRequests, d.sum("certa_backend_requests_total"))
		in.queueHighWater = max(in.queueHighWater, after.workers[i].sum("certa_admission_queue_high_water"))
		in.entries += after.workers[i].sum("certa_score_cache_entries")
	}
	d := merge(deltas...)
	stageInput(&in, d)
	count := func(name string) int { return int(d.sum(name)) }
	in.svc = certa.ScoringServiceStats{
		Lookups: count("certa_score_cache_lookups_total"), Hits: count("certa_score_cache_hits_total"),
		Misses: count("certa_score_cache_misses_total"), Batches: count("certa_score_cache_batches_total"),
		Evictions:   count("certa_score_cache_evictions_total"),
		FlipLookups: count("certa_flip_memo_lookups_total"), FlipHits: count("certa_flip_memo_hits_total"),
	}
	in.embedLookups = d.sum("certa_embedding_lookups_total")
	in.embedHits = d.sum("certa_embedding_hits_total")
	in.featurizeRows = float64(in.svc.Misses)
	in.forwardRows = float64(in.svc.Misses)
	in.handlerMS = 1000 * d.sum("certa_http_request_duration_seconds_sum", "endpoint", "/v1/explain")
	in.handlerN = d.sum("certa_http_request_duration_seconds_count", "endpoint", "/v1/explain")
	in.explainMS = 1000 * d.sum("certa_explain_duration_seconds_sum")
	in.explainN = d.sum("certa_explain_duration_seconds_count")
	in.served = d.sum("certa_explanations_served_total")
	in.coalesced = d.sum("certa_requests_coalesced_total")
	in.memoLookups = d.sum("certa_result_memo_lookups_total")
	in.memoHits = d.sum("certa_result_memo_hits_total")
	in.rejected = d.sum("certa_requests_rejected_total")
	outerMS, outerN := in.handlerMS, in.handlerN
	if r.t.routerURL != "" {
		rd := delta(before.router, after.router)
		in.routerMS = 1000 * rd.sum("certa_router_request_duration_seconds_sum", "endpoint", "/v1/explain")
		in.routerN = rd.sum("certa_router_request_duration_seconds_count", "endpoint", "/v1/explain")
		in.failovers = rd.sum("certa_router_failovers_total")
		outerMS, outerN = in.routerMS, in.routerN
	}
	in.clientMinusMS = st.clientMeanMS - ratio(outerMS, outerN)
	return in
}

// verify explains every checked pair the reference way and compares
// the answers the run kept.
func (r *serveRun) verify() error {
	var idx []int
	for i := range r.first.bodies {
		idx = append(idx, i)
	}
	pairs := make([]certa.Pair, len(idx))
	for k, i := range idx {
		pairs[k] = r.pairs[i]
	}
	refs, err := r.t.workers[0].d.reference(pairs)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	byIndex := make(map[int]*certa.Result, len(idx))
	for k, i := range idx {
		byIndex[i] = refs[k]
	}
	return r.first.verify(r.pairs, byIndex)
}
