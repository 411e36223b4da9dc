package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"certa/internal/core"
	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/server"
	"certa/internal/telemetry"
)

// The fixture mirrors internal/server's: token-overlap scoring over
// paired synthetic rows, so explanations are real and deterministic
// without training.

func testSources(n int) (*record.Table, *record.Table) {
	schema := record.MustSchema("S", "name", "desc", "price")
	left := record.NewTable(schema)
	right := record.NewTable(schema)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("widget%d alpha%d", i, i%5)
		desc := fmt.Sprintf("desc%d common%d filler%d", i, i%3, i%7)
		price := fmt.Sprintf("%d", 10+i)
		left.MustAdd(record.MustNew(fmt.Sprintf("l%d", i), schema, name, desc, price))
		right.MustAdd(record.MustNew(fmt.Sprintf("r%d", i), schema, name+" extra", desc, price))
	}
	return left, right
}

type overlapModel struct{}

func (overlapModel) Name() string { return "overlap" }

func (overlapModel) Score(p record.Pair) float64 {
	toks := func(r *record.Record) map[string]bool {
		out := make(map[string]bool)
		for _, v := range r.Values {
			for _, t := range strings.Fields(v) {
				out[t] = true
			}
		}
		return out
	}
	a, b := toks(p.Left), toks(p.Right)
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// testRing is an in-process ring: n workers over one shared fixture,
// plus a router in front.
type testRing struct {
	left, right *record.Table
	pairs       []record.Pair
	workers     []*testWorker
	router      *Router
	ts          *httptest.Server
}

type testWorker struct {
	name string
	srv  *server.Server
	ts   *httptest.Server
	svc  *scorecache.Service
}

// newTestWorker starts one worker; memo is its ResultMemo bound.
func newTestWorker(t *testing.T, name string, left, right *record.Table, pairs []record.Pair, memo int) *testWorker {
	t.Helper()
	svc := scorecache.NewService(overlapModel{}, scorecache.ServiceOptions{})
	srv, err := server.New([]server.Backend{{
		Name: "toy", Left: left, Right: right, Model: overlapModel{},
		Options: core.Options{Triangles: 8, Seed: 3},
		Pairs:   pairs,
		Service: svc,
	}}, server.Options{Name: name, ResultMemo: memo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &testWorker{name: name, srv: srv, ts: ts, svc: svc}
}

func newTestRing(t *testing.T, n int, opts Options) *testRing {
	t.Helper()
	left, right := testSources(24)
	var pairs []record.Pair
	for i := 0; i < 6; i++ {
		pairs = append(pairs, record.Pair{Left: left.Records[i], Right: right.Records[i]})
	}
	tr := &testRing{left: left, right: right, pairs: pairs}
	var members []Member
	for i := 0; i < n; i++ {
		w := newTestWorker(t, fmt.Sprintf("w%d", i), left, right, pairs, 0)
		tr.workers = append(tr.workers, w)
		members = append(members, Member{Name: w.name, URL: w.ts.URL})
	}
	tr.router, tr.ts = newRouter(t, members, left, right, pairs, opts)
	return tr
}

// newRouter fronts members with a router over the toy keyspace.
func newRouter(t *testing.T, members []Member, left, right *record.Table, pairs []record.Pair, opts Options) (*Router, *httptest.Server) {
	t.Helper()
	opts.Keyspaces = []Keyspace{{Name: "toy", Left: left, Right: right, Pairs: pairs}}
	rt, err := NewRouter(members, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func post(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// scrape reads url's GET /v1/metrics through the telemetry reader and
// returns it with the raw exposition text.
func scrape(t *testing.T, url string) (*telemetry.Exposition, string) {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	m, rerr := telemetry.ReadExposition(bytes.NewReader(body))
	if err != nil || rerr != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/metrics: status %d, %v, %v", url, resp.StatusCode, err, rerr)
	}
	return m, string(body)
}

// sampleKey renders a sample's name and labels (fmt sorts map keys).
func sampleKey(s telemetry.Sample) string {
	return fmt.Sprintf("%s%v", s.Name, s.Labels)
}

// identityRequests is the request matrix the byte-identity tests run:
// the addressing modes, the anytime knobs (call_budget), pruned mode,
// top_k shaping, and the error cases a router must not answer
// differently than a worker.
func identityRequests() []string {
	return []string{
		`{"pair_index":0}`,
		`{"pair_index":1}`,
		`{"left_id":"l2","right_id":"r2"}`,
		`{"left_id":"l3","right_id":"r3","call_budget":40}`,
		`{"pair_index":2,"lattice_prune":{"threshold":0.5,"min_levels":1}}`,
		`{"pair_index":3,"top_k":2}`,
		`{"left":{"values":["widget9 alpha4","desc9 common0 filler2","19"]},"right":{"values":["widget9 alpha4 extra","desc9 common0 filler2","19"]}}`,
		`{"pair_index":99}`,                   // out of range -> worker's 400 body
		`{"left_id":"l1"}`,                    // half-addressed -> worker's 400 body
		`{"benchmark":"nope","pair_index":0}`, // unknown benchmark -> worker's 404 body
		`{}`,                                  // no address at all -> worker's 400 body
	}
}

// TestRoutedExplainByteIdentical is the core acceptance check: for
// every request shape, a 1-worker ring and a 4-worker ring return the
// exact bytes a direct certa-serve process returns — success bodies,
// anytime and pruned modes, and error bodies alike.
func TestRoutedExplainByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d-worker", workers), func(t *testing.T) {
			ring := newTestRing(t, workers, Options{})
			// The direct server: same fixture, its own cache.
			direct := newTestWorker(t, "direct", ring.left, ring.right, ring.pairs, 0)
			for _, req := range identityRequests() {
				directResp, directBody := post(t, direct.ts.URL+"/v1/explain", req)
				routedResp, routedBody := post(t, ring.ts.URL+"/v1/explain", req)
				if directResp.StatusCode != routedResp.StatusCode {
					t.Errorf("request %s: direct status %d, routed %d", req, directResp.StatusCode, routedResp.StatusCode)
					continue
				}
				if !bytes.Equal(directBody, routedBody) {
					t.Errorf("request %s: routed body differs from direct:\ndirect: %s\nrouted: %s", req, directBody, routedBody)
				}
			}
		})
	}
}

// TestRoutedBatchByteIdentical: a batch spanning every shard (and
// containing error items) merges back byte-identical to the direct
// server's batch response — envelope, item order, trailing newline,
// everything.
func TestRoutedBatchByteIdentical(t *testing.T) {
	batch := `{"requests":[{"pair_index":0},{"pair_index":4},{"pair_index":1,"call_budget":40},{"pair_index":99},{"pair_index":2},{"left_id":"l5","right_id":"r5"},{"pair_index":3,"top_k":1}]}`
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d-worker", workers), func(t *testing.T) {
			ring := newTestRing(t, workers, Options{})
			direct := newTestWorker(t, "direct", ring.left, ring.right, ring.pairs, 0)
			directResp, directBody := post(t, direct.ts.URL+"/v1/explain/batch", batch)
			routedResp, routedBody := post(t, ring.ts.URL+"/v1/explain/batch", batch)
			if directResp.StatusCode != 200 || routedResp.StatusCode != 200 {
				t.Fatalf("status: direct %d routed %d", directResp.StatusCode, routedResp.StatusCode)
			}
			if !bytes.Equal(directBody, routedBody) {
				t.Fatalf("routed batch differs from direct:\ndirect: %s\nrouted: %s", directBody, routedBody)
			}
			// The malformed-batch and empty-batch paths forward whole and
			// must also match.
			for _, bad := range []string{`{"requests":[]}`, `{"nope":1}`, `{`} {
				dResp, dBody := post(t, direct.ts.URL+"/v1/explain/batch", bad)
				rResp, rBody := post(t, ring.ts.URL+"/v1/explain/batch", bad)
				if dResp.StatusCode != rResp.StatusCode || !bytes.Equal(dBody, rBody) {
					t.Errorf("bad batch %q: direct (%d, %s) vs routed (%d, %s)", bad, dResp.StatusCode, dBody, rResp.StatusCode, rBody)
				}
			}
		})
	}
}

// TestShardedPlacementIsStable: the same pair always lands on the ring
// owner the placement math predicts (X-Certa-Worker), so worker caches
// accumulate disjoint shards.
func TestShardedPlacementIsStable(t *testing.T) {
	ring := newTestRing(t, 4, Options{})
	for i, p := range ring.pairs {
		want := ring.router.Ring().Owner(scorecache.ShardHash(scorecache.Key(p))).Name
		for rep := 0; rep < 2; rep++ {
			resp, body := post(t, ring.ts.URL+"/v1/explain", fmt.Sprintf(`{"pair_index":%d}`, i))
			if resp.StatusCode != 200 {
				t.Fatalf("pair %d: status %d: %s", i, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Certa-Worker"); got != want {
				t.Fatalf("pair %d served by %q, ring owner is %q", i, got, want)
			}
		}
	}
}

// TestFailoverRetriesNextReplica: killing a worker mid-ring must not
// fail requests — its shard flows to the next replica, the router
// reports the member down, and recovery is possible because a stale
// down flag is retried as a last resort.
func TestFailoverRetriesNextReplica(t *testing.T) {
	ring := newTestRing(t, 2, Options{})
	// Find a pair owned by each worker so both code paths run.
	ownerOf := func(i int) string {
		return ring.router.Ring().Owner(scorecache.ShardHash(scorecache.Key(ring.pairs[i]))).Name
	}
	victim := ring.workers[0]
	victim.ts.Close() // SIGKILL stand-in: connection refused from now on

	for i := range ring.pairs {
		resp, body := post(t, ring.ts.URL+"/v1/explain", fmt.Sprintf(`{"pair_index":%d}`, i))
		if resp.StatusCode != 200 {
			t.Fatalf("pair %d (owner %s) after killing %s: status %d: %s", i, ownerOf(i), victim.name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Certa-Worker"); got == victim.name {
			t.Fatalf("pair %d reportedly served by dead worker %s", i, victim.name)
		}
	}
	// Batches keep working too, with every item answered.
	resp, body := post(t, ring.ts.URL+"/v1/explain/batch",
		`{"requests":[{"pair_index":0},{"pair_index":1},{"pair_index":2}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("batch after kill: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Responses []server.ExplainResponse `json:"responses"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(out.Responses))
	}
	for i, r := range out.Responses {
		if r.Error != "" || r.Result == nil {
			t.Fatalf("batch item %d failed after failover: %+v", i, r)
		}
	}

	m, _ := scrape(t, ring.ts.URL)
	if h := m.Sum("certa_router_workers_healthy", nil); h != 1 {
		t.Fatalf("certa_router_workers_healthy = %v after kill, want 1", h)
	}
	if m.Sum("certa_router_failovers_total", nil) == 0 {
		t.Fatal("failovers = 0 after killing a worker mid-load")
	}
	if m.Sum("certa_router_worker_healthy", telemetry.Labels{"worker": victim.name}) != 0 {
		t.Fatalf("dead worker %s still reported healthy", victim.name)
	}
}

// TestAllWorkersDownReturns502: when nothing is reachable the router
// answers with the standard error body and a gateway status rather
// than hanging or panicking.
func TestAllWorkersDownReturns502(t *testing.T) {
	ring := newTestRing(t, 2, Options{})
	for _, w := range ring.workers {
		w.ts.Close()
	}
	resp, body := post(t, ring.ts.URL+"/v1/explain", `{"pair_index":0}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d with all workers down, want 502 (%s)", resp.StatusCode, body)
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("502 body not an ErrorResponse: %s", body)
	}
	if ring.router.unroutable.Value() == 0 {
		t.Fatal("unroutable = 0 after a 502")
	}
}

// TestRingMetricsFederation: the router's /v1/metrics carries every
// sample of each worker's own /v1/metrics, labeled worker="<name>" with
// the value text untouched, under one TYPE line per family; the
// workers' counters add up to the traffic sent; and a worker that
// cannot be scraped is left out and reported down while the scrape
// still answers.
func TestRingMetricsFederation(t *testing.T) {
	ring := newTestRing(t, 2, Options{})
	for i := range ring.pairs {
		if resp, body := post(t, ring.ts.URL+"/v1/explain", fmt.Sprintf(`{"pair_index":%d}`, i)); resp.StatusCode != 200 {
			t.Fatalf("pair %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ring.ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats on the router: status %d, want 404", resp.StatusCode)
	}

	fed, text := scrape(t, ring.ts.URL)
	routed := make(map[string]string)
	for _, f := range fed.Families {
		for _, s := range f.Samples {
			routed[sampleKey(s)] = s.Value
		}
	}
	for _, w := range ring.workers {
		own, _ := scrape(t, w.ts.URL)
		own.AddLabel("worker", w.name)
		for _, f := range own.Families {
			for _, s := range f.Samples {
				got, ok := routed[sampleKey(s)]
				switch {
				case !ok:
					t.Errorf("router scrape lacks %s", sampleKey(s))
				case got != s.Value && f.Name != "certa_uptime_seconds": // the clock moves between scrapes
					t.Errorf("%s = %q at the router, %q at the worker", sampleKey(s), got, s.Value)
				}
			}
		}
	}
	for _, f := range fed.Families {
		if n := strings.Count("\n"+text, "\n# TYPE "+f.Name+" "); n != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1", f.Name, n)
		}
	}
	var order []string
	for _, s := range fed.Family("certa_explanations_served_total").Samples {
		order = append(order, s.Labels["worker"])
	}
	if strings.Join(order, ",") != "w0,w1" {
		t.Errorf("served series in worker order %v, want member order w0,w1", order)
	}

	if w, h := fed.Sum("certa_router_workers", nil), fed.Sum("certa_router_workers_healthy", nil); w != 2 || h != 2 {
		t.Fatalf("workers %v healthy %v, want 2/2", w, h)
	}
	n := float64(len(ring.pairs))
	if served := fed.Sum("certa_explanations_served_total", nil); served != n {
		t.Fatalf("ring served %v computations for %v distinct requests", served, n)
	}
	if fwd := fed.Sum("certa_router_forwarded_total", nil); fwd < n {
		t.Fatalf("forwarded = %v, want >= %v", fwd, n)
	}

	ring.workers[1].ts.Close()
	fed, _ = scrape(t, ring.ts.URL)
	for _, f := range fed.Families {
		for _, s := range f.Samples {
			if s.Labels["worker"] == "w1" && !strings.HasPrefix(f.Name, "certa_router_") {
				t.Fatalf("closed worker's series still federated: %s", sampleKey(s))
			}
		}
	}
	if h := fed.Sum("certa_router_worker_healthy", telemetry.Labels{"worker": "w1"}); h != 0 {
		t.Fatalf("certa_router_worker_healthy{worker=\"w1\"} = %v after its listener closed, want 0", h)
	}
	if fed.Sum("certa_explanations_served_total", telemetry.Labels{"worker": "w0"}) == 0 {
		t.Fatal("the live worker's series dropped with the dead one's")
	}
}

// TestRoutedBatchKeepsClientItemBytes: sub-batches carry the client's
// own item bytes. Re-encoding items turned each '&' into a six-byte
// \u0026 escape, so this 200,097-byte batch, which a worker accepts
// directly, grew past the worker's 1 MiB body limit behind the router:
// the worker answered 413 and the router marked a healthy worker down
// and failed both items.
func TestRoutedBatchKeepsClientItemBytes(t *testing.T) {
	ring := newTestRing(t, 1, Options{})
	direct := newTestWorker(t, "direct", ring.left, ring.right, ring.pairs, 0)
	batch := `{"requests":[{"left":{"values":["` + strings.Repeat("&", 200_000) +
		`","x","1"]},"right":{"values":["x","x","1"]}},{"pair_index":0}]}`
	directResp, directBody := post(t, direct.ts.URL+"/v1/explain/batch", batch)
	routedResp, routedBody := post(t, ring.ts.URL+"/v1/explain/batch", batch)
	if directResp.StatusCode != 200 || routedResp.StatusCode != 200 {
		t.Fatalf("status: direct %d routed %d", directResp.StatusCode, routedResp.StatusCode)
	}
	if f, u := ring.router.failovers.Value(), ring.router.unroutable.Value(); f != 0 || u != 0 {
		t.Fatalf("healthy worker failed over: %d failovers, %d unroutable", f, u)
	}
	if !bytes.Equal(directBody, routedBody) {
		t.Fatalf("routed batch (%d bytes) differs from direct (%d bytes)", len(routedBody), len(directBody))
	}
}

// TestRoutedMemoHitKeepsHeaders: the router relays every X-Certa-*
// header the worker set, so a routed repeat still says it was answered
// from the worker's result memo.
func TestRoutedMemoHitKeepsHeaders(t *testing.T) {
	left, right := testSources(24)
	pairs := []record.Pair{{Left: left.Records[0], Right: right.Records[0]}}
	w0 := newTestWorker(t, "w0", left, right, pairs, 4)
	_, ts := newRouter(t, []Member{{Name: "w0", URL: w0.ts.URL}}, left, right, pairs, Options{})
	for i, want := range []string{"false", "true"} {
		resp, body := post(t, ts.URL+"/v1/explain", `{"pair_index":0}`)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Certa-Memoized"); got != want {
			t.Fatalf("request %d: routed X-Certa-Memoized = %q, want %q", i, got, want)
		}
	}
}

// TestRouterMetricsSurface: the router's own /v1/metrics carries the
// routing series catalog, including per-worker health gauges.
func TestRouterMetricsSurface(t *testing.T) {
	ring := newTestRing(t, 2, Options{})
	if resp, body := post(t, ring.ts.URL+"/v1/explain", `{"pair_index":0}`); resp.StatusCode != 200 {
		t.Fatalf("%d %s", resp.StatusCode, body)
	}
	_, scrape := scrape(t, ring.ts.URL)
	for _, want := range []string{
		"certa_router_uptime_seconds",
		"certa_router_forwarded_total 1",
		"certa_router_workers 2",
		"certa_router_workers_healthy 2",
		`certa_router_worker_healthy{worker="w0"} 1`,
		`certa_router_worker_healthy{worker="w1"} 1`,
		"certa_router_failovers_total 0",
		"certa_router_request_duration_seconds",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}

// TestProbeOnceTracksHealth: the active prober marks a sick worker
// down and a recovered one up.
func TestProbeOnceTracksHealth(t *testing.T) {
	ring := newTestRing(t, 2, Options{ProbeTimeout: 500 * time.Millisecond})
	ring.router.ProbeOnce(context.Background())
	if got := ring.router.healthyWorkers(); got != 2 {
		t.Fatalf("healthy = %d after probing live workers, want 2", got)
	}
	ring.workers[1].ts.Close()
	ring.router.ProbeOnce(context.Background())
	if got := ring.router.healthyWorkers(); got != 1 {
		t.Fatalf("healthy = %d after killing one worker, want 1", got)
	}
}

// TestWarmJoinOverHTTP is the snapshot-shipping acceptance path: a
// worker joining the ring pulls the donor's snapshot over HTTP,
// installs exactly its shard, and serves its first request with cache
// hits — byte-identical to the donor's answer.
func TestWarmJoinOverHTTP(t *testing.T) {
	left, right := testSources(24)
	var pairs []record.Pair
	for i := 0; i < 4; i++ {
		pairs = append(pairs, record.Pair{Left: left.Records[i], Right: right.Records[i]})
	}
	donor := newTestWorker(t, "w0", left, right, pairs, 0)
	// Warm the donor on the whole workload.
	var donorBodies [][]byte
	for i := range pairs {
		resp, body := post(t, donor.ts.URL+"/v1/explain", fmt.Sprintf(`{"pair_index":%d}`, i))
		if resp.StatusCode != 200 {
			t.Fatalf("donor warming %d: %d %s", i, resp.StatusCode, body)
		}
		donorBodies = append(donorBodies, body)
	}
	if donor.svc.Len() == 0 {
		t.Fatal("donor cached nothing; warm-join test is vacuous")
	}

	// The ring the joiner will serve in: donor + joiner.
	joiner := newTestWorker(t, "w1", left, right, pairs, 0)
	ring, err := NewRing([]Member{
		{Name: "w0", URL: donor.ts.URL},
		{Name: "w1", URL: joiner.ts.URL},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}

	restored, err := FetchSnapshot(context.Background(), nil, donor.ts.URL, "toy", joiner.svc, KeepOwned(ring, "w1"))
	if err != nil {
		t.Fatal(err)
	}
	if restored == 0 {
		t.Fatal("shard-filtered warm join restored nothing (shard empty?)")
	}
	if restored >= donor.svc.Len() {
		t.Fatalf("joiner restored %d of %d donor entries — the shard filter kept everything", restored, donor.svc.Len())
	}
	for _, key := range joiner.svc.Keys() {
		if !ring.OwnsKey("w1", key) {
			t.Fatalf("joiner installed key it does not own: %q", key)
		}
	}

	// First request on the freshly joined worker: answered with hits
	// from the shipped shard, byte-identical to the donor's body.
	before := joiner.svc.Stats()
	resp, body := post(t, joiner.ts.URL+"/v1/explain", `{"pair_index":0}`)
	if resp.StatusCode != 200 {
		t.Fatalf("joiner first request: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, donorBodies[0]) {
		t.Fatalf("joiner's warm answer differs from donor's:\n%s\n%s", body, donorBodies[0])
	}
	after := joiner.svc.Stats()
	if after.Hits-before.Hits == 0 {
		t.Fatal("joiner served its first request with zero cache hits")
	}
}
