package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"certa/internal/core"
	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/telemetry"
)

// testSources builds two small product-like sources whose paired rows
// (l<i>, r<i>) share tokens, so a token-overlap model separates matches
// from non-matches and CERTA finds real triangles — no training needed.
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

// overlapModel scores by token Jaccard overlap — deterministic, cheap,
// and monotone enough for the lattice walk to flip predictions.
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

// gatedModel blocks every scoring batch until the gate opens, so tests
// can hold N requests in flight deterministically. While armed, it then
// fails the batch: with a returned error, or with a panic when panics
// is set; failed counts the batches it failed.
type gatedModel struct {
	overlapModel
	gate   chan struct{}
	panics bool
	armed  atomic.Bool
	failed atomic.Int64
}

func (m *gatedModel) ScoreBatchContext(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	select {
	case <-m.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if m.armed.Load() {
		m.failed.Add(1)
		if m.panics {
			panic("injected model bug")
		}
		return nil, errors.New("injected model error")
	}
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = m.Score(p)
	}
	return out, nil
}

func (m *gatedModel) ScoreBatch(pairs []record.Pair) []float64 {
	out, err := m.ScoreBatchContext(context.Background(), pairs)
	if err != nil {
		panic(err)
	}
	return out
}

// newTestServer builds a single-backend server over the synthetic
// sources.
func newTestServer(t *testing.T, model interface {
	Name() string
	Score(record.Pair) float64
}, opts Options, svc *scorecache.Service) *Server {
	t.Helper()
	left, right := testSources(24)
	var pairs []record.Pair
	for i := 0; i < 4; i++ {
		pairs = append(pairs, record.Pair{Left: left.Records[i], Right: right.Records[i]})
	}
	s, err := New([]Backend{{
		Name: "toy", Left: left, Right: right, Model: model,
		Options: core.Options{Triangles: 8, Seed: 3},
		Pairs:   pairs,
		Service: svc,
	}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestExplainEndpoint(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ExplainResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("undecodable body: %v\n%s", err, body)
	}
	if out.Benchmark != "toy" || out.PairKey != "l0|r0" {
		t.Fatalf("unexpected envelope: %+v", out)
	}
	if out.Result == nil || out.Result.Saliency == nil {
		t.Fatal("response has no explanation")
	}
	if out.Result.Diag.ModelCalls == 0 {
		t.Fatal("diagnostics report zero model calls")
	}
	if got := resp.Header.Get("X-Certa-Coalesced"); got != "false" {
		t.Fatalf("X-Certa-Coalesced = %q on an uncontended request", got)
	}

	// The same pair addressed by index answers identically (modulo the
	// now-warm cache diagnostics being equal — the pipeline is
	// deterministic and fully cached, so bodies match exactly).
	idx := 0
	resp2, body2 := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{PairIndex: &idx})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body, body2) {
		t.Fatalf("pair_index body differs from left_id/right_id body:\n%s\n%s", body, body2)
	}
}

func TestExplainRequestValidation(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"unknown benchmark", `{"benchmark":"nope","left_id":"l0","right_id":"r0"}`, http.StatusNotFound},
		{"unknown record", `{"left_id":"zzz","right_id":"r0"}`, http.StatusBadRequest},
		{"half ids", `{"left_id":"l0"}`, http.StatusBadRequest},
		{"index out of range", `{"pair_index":99}`, http.StatusBadRequest},
		{"unknown field", `{"left_id":"l0","right_id":"r0","bogus":1}`, http.StatusBadRequest},
		{"malformed json", `{`, http.StatusBadRequest},
		{"wrong value count", `{"left":{"values":["a"]},"right":{"values":["a","b","c"]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestOversizedBodyReturns413(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{MaxBodyBytes: 64}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	big := `{"left_id":"l0","right_id":"r0","benchmark":"` + strings.Repeat("x", 128) + `"}`
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestAmbiguousBackendReturns400(t *testing.T) {
	left, right := testSources(8)
	s, err := New([]Backend{
		{Name: "a", Left: left, Right: right, Model: overlapModel{}},
		{Name: "b", Left: left, Right: right, Model: overlapModel{}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	// No benchmark named against two backends: a fixable request defect
	// (400), not a missing resource (404).
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json",
		strings.NewReader(`{"left_id":"l0","right_id":"r0"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestInlinePairExplanation(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := ExplainRequest{
		Left:  &WireRecord{ID: "q1", Values: []string{"widget0 alpha0", "desc0 common0 filler0", "10"}},
		Right: &WireRecord{Values: []string{"widget0 alpha0 extra", "desc0 common0 filler0", "10"}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ExplainResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result == nil {
		t.Fatal("no result for inline pair")
	}
}

// TestCoalescingSharesOneComputation is the end-to-end acceptance test:
// N concurrent identical requests against a cold server run exactly one
// explanation computation and receive byte-identical JSON bodies.
func TestCoalescingSharesOneComputation(t *testing.T) {
	const n = 8
	gm := &gatedModel{gate: make(chan struct{})}
	s := newTestServer(t, gm, Options{MaxInFlight: 2}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l1", RightID: "r1"})
			statuses[i] = resp.StatusCode
			bodies[i] = body
		}(i)
	}

	waitAttached(t, s, n)
	close(gm.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if served := s.served.Value(); served != 1 {
		t.Fatalf("server ran %d computations for %d identical requests, want exactly 1", served, n)
	}
	if coalesced := s.coalesced.Value(); coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, n-1)
	}
}

// waitAttached waits until n requests have attached to one in-flight
// call of the toy backend.
func waitAttached(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	tbl := s.backends["toy"].calls
	for {
		tbl.mu.Lock()
		refs := 0
		for _, c := range tbl.calls {
			c.mu.Lock()
			refs += c.refs
			c.mu.Unlock()
		}
		calls := len(tbl.calls)
		tbl.mu.Unlock()
		if calls == 1 && refs == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %d calls, %d refs", calls, refs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotRestartServesWarm is the persistence half of the
// acceptance test: a server restarted from a snapshot answers the same
// request with shared-cache hits and zero model invocations, and the
// response body is byte-identical to the original server's.
func TestSnapshotRestartServesWarm(t *testing.T) {
	s1 := newTestServer(t, overlapModel{}, Options{}, nil)
	ts1 := httptest.NewServer(s1)
	defer ts1.Close()

	req := ExplainRequest{LeftID: "l2", RightID: "r2"}
	resp, coldBody := postJSON(t, ts1.URL+"/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", resp.StatusCode, coldBody)
	}

	svc1, _ := s1.CacheService("toy")
	var snap bytes.Buffer
	if _, err := s1.Snapshot("toy", &snap); err != nil {
		t.Fatal(err)
	}
	if svc1.Stats().Misses == 0 {
		t.Fatal("cold run paid no model calls; snapshot test is vacuous")
	}

	// "Restart": a brand-new server whose service is restored from the
	// snapshot.
	restored := scorecache.NewService(overlapModel{}, scorecache.ServiceOptions{})
	if _, err := restored.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, overlapModel{}, Options{}, restored)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	resp2, warmBody := postJSON(t, ts2.URL+"/v1/explain", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", resp2.StatusCode, warmBody)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatalf("warm body differs from cold body:\n%s\n%s", coldBody, warmBody)
	}
	st := restored.Stats()
	if st.Hits == 0 {
		t.Fatal("restored service answered with zero shared-cache hits")
	}
	if st.Misses != 0 {
		t.Fatalf("restored service still invoked the model %d times", st.Misses)
	}
}

func TestAdmissionOverloadReturns429(t *testing.T) {
	gm := &gatedModel{gate: make(chan struct{})}
	s := newTestServer(t, gm, Options{MaxInFlight: 1, MaxQueue: 1}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Request 1 takes the slot (blocked at the gate), request 2 queues.
	results := make(chan int, 2)
	for i, pair := range [][2]string{{"l0", "r0"}, {"l1", "r1"}} {
		go func(l, r string) {
			resp, _ := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: l, RightID: r})
			results <- resp.StatusCode
		}(pair[0], pair[1])
		// Wait for the occupancy to reach this request before sending the
		// next, so the arrival order is deterministic.
		deadline := time.Now().Add(10 * time.Second)
		for {
			inflight, queued, _, _ := s.adm.snapshot()
			if inflight+queued == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("admission never reached occupancy %d", i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Request 3 finds slot and queue full: immediate 429 with Retry-After.
	resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l3", RightID: "r3"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gm.gate)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("queued request finished with status %d", code)
		}
	}
	if served, rejected := s.served.Value(), s.rejected.Value(); rejected != 1 || served != 2 {
		t.Fatalf("counters = served %d, rejected %d; want 2, 1", served, rejected)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Two identical items (coalesce), one distinct, one invalid.
	req := BatchRequest{Requests: []ExplainRequest{
		{LeftID: "l0", RightID: "r0"},
		{LeftID: "l0", RightID: "r0"},
		{LeftID: "l1", RightID: "r1", DeadlineMS: 5000},
		{LeftID: "nope", RightID: "r0"},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/explain/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 4 {
		t.Fatalf("%d responses for 4 requests", len(out.Responses))
	}
	for i := 0; i < 3; i++ {
		if out.Responses[i].Error != "" || out.Responses[i].Result == nil {
			t.Fatalf("item %d failed: %+v", i, out.Responses[i])
		}
	}
	if out.Responses[0].PairKey != "l0|r0" || out.Responses[2].PairKey != "l1|r1" {
		t.Fatalf("responses misaligned: %+v", out.Responses)
	}
	if out.Responses[3].Error == "" {
		t.Fatal("invalid item reported no error")
	}
}

func TestCoalesceKeyRespectsIdentityAndOptions(t *testing.T) {
	left, right := testSources(4)
	p := record.Pair{Left: left.Records[0], Right: right.Records[0]}
	base := coalesceKey("toy", knobs{}, p)

	// Same content addressed under different record IDs must not share a
	// body: the response embeds pair_key and record ids.
	otherID := record.Pair{
		Left:  record.MustNew("elsewhere", p.Left.Schema, p.Left.Values...),
		Right: p.Right,
	}
	if coalesceKey("toy", knobs{}, otherID) == base {
		t.Fatal("different record IDs coalesced onto one response body")
	}
	// Different engine knobs compute different explanations.
	if coalesceKey("toy", knobs{callBudget: 10}, p) == base ||
		coalesceKey("toy", knobs{deadlineMS: 10}, p) == base ||
		coalesceKey("toy", knobs{augmentBudget: 10}, p) == base ||
		coalesceKey("toy", knobs{topK: 1}, p) == base ||
		coalesceKey("toy", knobs{pruneThreshold: 0.5}, p) == base ||
		coalesceKey("toy", knobs{pruneThreshold: 0.5, pruneMinLevels: 3}, p) ==
			coalesceKey("toy", knobs{pruneThreshold: 0.5}, p) {
		t.Fatal("different knobs coalesced onto one response body")
	}
	// The identical request does share.
	if coalesceKey("toy", knobs{}, p) != base {
		t.Fatal("identical requests produced different coalesce keys")
	}
}

// TestLatticePruneKnob exercises the lattice_prune request knob end to
// end: a pruned request must succeed, report the skipped questions in
// diagnostics, and ask no more lattice questions than the exact run of
// the same pair.
func TestLatticePruneKnob(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	exact, exactBody := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	pruned, prunedBody := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{
		LeftID: "l0", RightID: "r0",
		LatticePrune: &WirePrunePolicy{Threshold: 0.25, MinLevels: 1},
	})
	if exact.StatusCode != 200 || pruned.StatusCode != 200 {
		t.Fatalf("statuses %d/%d: %s / %s", exact.StatusCode, pruned.StatusCode, exactBody, prunedBody)
	}
	var exactOut, prunedOut ExplainResponse
	if err := json.Unmarshal(exactBody, &exactOut); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(prunedBody, &prunedOut); err != nil {
		t.Fatal(err)
	}
	if exactOut.Result.Diag.PrunedQueries != 0 {
		t.Fatalf("exact request reported %d pruned queries", exactOut.Result.Diag.PrunedQueries)
	}
	if prunedOut.Result.Diag.PrunedQueries == 0 {
		t.Fatal("threshold-0.25 request pruned nothing; the knob did not reach the engine")
	}
	if prunedOut.Result.Diag.LatticeQueries > exactOut.Result.Diag.LatticeQueries {
		t.Fatalf("pruned run asked more questions (%d) than exact (%d)",
			prunedOut.Result.Diag.LatticeQueries, exactOut.Result.Diag.LatticeQueries)
	}
}

func TestTopKShapesResponse(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	full, fullBody := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	shaped, shapedBody := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0", TopK: 2})
	if full.StatusCode != 200 || shaped.StatusCode != 200 {
		t.Fatalf("statuses %d/%d", full.StatusCode, shaped.StatusCode)
	}
	var fullOut, shapedOut ExplainResponse
	if err := json.Unmarshal(fullBody, &fullOut); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(shapedBody, &shapedOut); err != nil {
		t.Fatal(err)
	}
	if len(fullOut.Result.Saliency.Scores) != 6 {
		t.Fatalf("full response has %d saliency entries, want 6", len(fullOut.Result.Saliency.Scores))
	}
	if len(shapedOut.Result.Saliency.Scores) != 2 {
		t.Fatalf("top_k=2 response has %d saliency entries", len(shapedOut.Result.Saliency.Scores))
	}
	if len(shapedOut.Result.Counterfactuals) > 2 {
		t.Fatalf("top_k=2 response has %d counterfactuals", len(shapedOut.Result.Counterfactuals))
	}
}

// panickyModel simulates an engine bug reachable from a request.
type panickyModel struct{ overlapModel }

func (panickyModel) ScoreBatch(pairs []record.Pair) []float64 {
	panic("injected model bug")
}

func TestComputationPanicIsContained(t *testing.T) {
	// The coalesced computation runs outside net/http's per-request
	// recovery; an engine panic must become that request's 500, not kill
	// the process (and with it every other request and the unsnapshotted
	// cache).
	s := newTestServer(t, panickyModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Fatalf("error body does not surface the panic: %s", body)
	}
	if errored := s.errored.Value(); errored != 1 {
		t.Fatalf("errors = %d after a panicked computation", errored)
	}
	// The server survived.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d after contained panic", hresp.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Backends) != 1 || health.Backends[0] != "toy" {
		t.Fatalf("healthz = %+v", health)
	}

	postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})

	// /v1/metrics is the only stats surface; the retired JSON one is gone.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: status %d, want 404", resp.StatusCode)
	}
	m := s.metrics.Exposition()
	if served := m.Sum("certa_explanations_served_total", nil); served != 1 {
		t.Fatalf("served = %v", served)
	}
	if misses, entries := m.Sum("certa_score_cache_misses_total", toy), m.Sum("certa_score_cache_entries", toy); misses == 0 || entries == 0 {
		t.Fatalf("backend cache series: %v misses, %v entries", misses, entries)
	}
	if m.Sum("certa_model_info", telemetry.Labels{"backend": "toy", "model": "overlap"}) != 1 {
		t.Fatal("certa_model_info does not name the backend's model")
	}
	// The candidate retrieval index is built at server construction and
	// must be visible in the scrape.
	records, tokens := m.Sum("certa_index_records", toy), m.Sum("certa_index_distinct_tokens", toy)
	if build := m.Sum("certa_index_build_seconds", toy); records != 48 || tokens == 0 || build <= 0 {
		t.Fatalf("index series = %v records, %v tokens, %vs build; want 48 records, tokens > 0, build > 0", records, tokens, build)
	}
}

// neverFlipsModel predicts Match for every pair, so no candidate is ever
// an eligible support.
type neverFlipsModel struct{}

func (neverFlipsModel) Name() string              { return "never-flips" }
func (neverFlipsModel) Score(record.Pair) float64 { return 0.9 }

// TestAugmentBudgetKnob checks the per-request augment_budget override
// reaches the engine: on a forced-augmentation backend whose model never
// flips, the guided scan runs its full patience (20 barren records,
// dozens of variants) by default, while an absurdly small budget stops
// it after one variant per wanted support — strictly less search work.
func TestAugmentBudgetKnob(t *testing.T) {
	left, right := testSources(24)
	s, err := New([]Backend{{
		Name: "toy", Left: left, Right: right, Model: neverFlipsModel{},
		Options: core.Options{Triangles: 8, Seed: 3, ForceAugmentation: true},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, defBody := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r1"})
	if resp.StatusCode != 200 {
		t.Fatalf("default request: status %d: %s", resp.StatusCode, defBody)
	}
	resp, tinyBody := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r1", AugmentBudget: 1})
	if resp.StatusCode != 200 {
		t.Fatalf("tiny-budget request: status %d: %s", resp.StatusCode, tinyBody)
	}
	var def, tiny ExplainResponse
	if err := json.Unmarshal(defBody, &def); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tinyBody, &tiny); err != nil {
		t.Fatal(err)
	}
	if tiny.Result.Diag.TriangleSearchCalls >= def.Result.Diag.TriangleSearchCalls {
		t.Fatalf("augment_budget=1 spent %d search calls, default spent %d — the knob did not reach the engine",
			tiny.Result.Diag.TriangleSearchCalls, def.Result.Diag.TriangleSearchCalls)
	}
}

// TestSnapshotEndpointStreamsRestorableCache: GET /v1/snapshot returns
// the score cache in the binary snapshot format, restorable into a
// fresh service over HTTP — the donor side of cluster warm bring-up.
// An unknown benchmark name is a 404 with the usual error body.
func TestSnapshotEndpointStreamsRestorableCache(t *testing.T) {
	var logBuf bytes.Buffer
	s := newTestServer(t, overlapModel{}, Options{Name: "donor", Logger: slog.New(slog.NewTextHandler(&logBuf, nil))}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	idx := 0
	if resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{PairIndex: &idx}); resp.StatusCode != 200 {
		t.Fatalf("warming request: status %d: %s", resp.StatusCode, body)
	}
	// The request log names the serving process, so ring workers' lines
	// can be told apart.
	if line := logBuf.String(); !strings.Contains(line, "msg=explain") || !strings.Contains(line, "worker=donor") {
		t.Fatalf("request log line does not carry worker=donor:\n%s", line)
	}
	svc, _ := s.CacheService("toy")
	if svc.Len() == 0 {
		t.Fatal("nothing cached; snapshot endpoint test is vacuous")
	}

	resp, err := http.Get(ts.URL + "/v1/snapshot?benchmark=toy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot Content-Type = %q", ct)
	}
	if bk := resp.Header.Get("X-Certa-Backend"); bk != "toy" {
		t.Fatalf("X-Certa-Backend = %q, want %q", bk, "toy")
	}
	restored := scorecache.NewService(overlapModel{}, scorecache.ServiceOptions{})
	n, err := restored.Restore(resp.Body)
	if err != nil {
		t.Fatalf("restoring streamed snapshot: %v", err)
	}
	if n != svc.Len() {
		t.Fatalf("restored %d entries over HTTP, donor holds %d", n, svc.Len())
	}

	badResp, err := http.Get(ts.URL + "/v1/snapshot?benchmark=nope")
	if err != nil {
		t.Fatal(err)
	}
	defer badResp.Body.Close()
	if badResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown benchmark snapshot: status %d, want 404", badResp.StatusCode)
	}
}
