package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"certa/internal/record"
)

// stuckModel answers its first batch (the original-pair score) and then
// blocks every later batch until its context is cancelled — the shape of
// a hung downstream model. It records that cancellation reached it.
type stuckModel struct {
	overlapModel
	batches      atomic.Int64
	started      chan struct{} // closed when the first blocking batch begins
	startedOnce  sync.Once
	sawCancel    atomic.Bool
	unblockAfter atomic.Bool // when set, later batches score normally again
}

func (m *stuckModel) ScoreBatchContext(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	if m.batches.Add(1) == 1 || m.unblockAfter.Load() {
		out := make([]float64, len(pairs))
		for i, p := range pairs {
			out[i] = m.Score(p)
		}
		return out, nil
	}
	m.startedOnce.Do(func() { close(m.started) })
	<-ctx.Done()
	m.sawCancel.Store(true)
	return nil, ctx.Err()
}

// TestClientDisconnectCancelsExplanation proves the cancellation chain:
// dropping the HTTP connection detaches the request, the coalesced
// computation's context is cancelled, the ExplainContext inside aborts
// at its next scoring call, the admission slot is returned, and no
// goroutine is left behind.
func TestClientDisconnectCancelsExplanation(t *testing.T) {
	sm := &stuckModel{started: make(chan struct{})}
	s := newTestServer(t, sm, Options{MaxInFlight: 2}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/explain",
		strings.NewReader(`{"left_id":"l0","right_id":"r0"}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// The explanation is now inside the model, blocked. Drop the client.
	select {
	case <-sm.started:
	case <-time.After(10 * time.Second):
		t.Fatal("explanation never reached the model")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned no error")
	}

	// The model's blocked call observes the cancellation...
	waitFor(t, "model cancellation", func() bool { return sm.sawCancel.Load() })
	// ...the server accounts the disconnect...
	waitFor(t, "cancelled counter", func() bool { return s.cancelled.Value() == 1 })
	// ...the admission slot drains...
	waitFor(t, "admission drain", func() bool {
		inflight, queued, _, _ := s.adm.snapshot()
		return inflight == 0 && queued == 0
	})
	// ...the request table empties...
	waitFor(t, "request table drain", func() bool {
		tbl := s.backends["toy"].calls
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		return len(tbl.calls) == 0
	})
	// ...and no goroutine leaks.
	client.CloseIdleConnections()
	waitFor(t, "goroutine count", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})

	// The server is still healthy: the same request, uncancelled, now
	// completes (the model unblocks).
	sm.unblockAfter.Store(true)
	resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request: status %d: %s", resp.StatusCode, body)
	}
}

// TestClientDisconnectStopsBatchDispatch is the regression test for the
// severed-context bug certa-lint's ctxthread analyzer surfaced in
// handleBatch: the handler held r.Context() but dispatched items through
// workpool.Each, so a disconnected client's remaining batch items were
// still pushed one by one through admission and the serve path (each
// failing individually against the dead context). With EachContext the
// disconnect stops dispatch: out of a 16-item batch stuck on its first
// explanations, only the items already handed to workers are ever
// accounted — the rest are never dispatched at all.
func TestClientDisconnectStopsBatchDispatch(t *testing.T) {
	sm := &stuckModel{started: make(chan struct{})}
	// MaxInFlight+MaxQueue bounds the batch worker pool: 2 workers here,
	// so after the disconnect at most the two in-flight items (plus the
	// two at the dispatch barrier) can reach the serve path.
	s := newTestServer(t, sm, Options{MaxInFlight: 1, MaxQueue: 1}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	const items = 16
	var breq BatchRequest
	for i := 0; i < items; i++ {
		breq.Requests = append(breq.Requests, ExplainRequest{
			LeftID:  "l" + strconv.Itoa(i),
			RightID: "r" + strconv.Itoa(i),
		})
	}
	data, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/explain/batch",
		strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// An item is inside the model, blocked. Drop the client.
	select {
	case <-sm.started:
	case <-time.After(10 * time.Second):
		t.Fatal("batch never reached the model")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled batch request returned no error")
	}

	// Everything in flight unwinds...
	waitFor(t, "admission drain", func() bool {
		inflight, queued, _, _ := s.adm.snapshot()
		return inflight == 0 && queued == 0
	})
	// ...and the items that were never dispatched never show up in the
	// serve counters: with Each instead of EachContext every one of the
	// 16 items was pushed through the dead context and accounted (as a
	// cancellation each). Watch the counters until they go quiet — the
	// handler may still be unwinding — and judge the peak.
	accounted := func() int {
		return int(s.served.Value() + s.coalesced.Value() + s.rejected.Value() + s.cancelled.Value() + s.errored.Value())
	}
	last, stable := accounted(), 0
	for stable < 30 { // quiet for 300ms
		time.Sleep(10 * time.Millisecond)
		if now := accounted(); now != last {
			last, stable = now, 0
		} else {
			stable++
		}
	}
	if last >= items/2 {
		t.Fatalf("disconnected batch still accounted %d of %d items (served=%d coalesced=%d rejected=%d cancelled=%d errors=%d); dispatch was not stopped",
			last, items, s.served.Value(), s.coalesced.Value(), s.rejected.Value(), s.cancelled.Value(), s.errored.Value())
	}

	// The server is still healthy afterwards.
	sm.unblockAfter.Store(true)
	resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request: status %d: %s", resp.StatusCode, body)
	}
}

// TestDeadlineKnobTruncatesVisibly maps deadline_ms onto the anytime
// soft deadline: the response arrives with HTTP 200 and the early abort
// is visible in the diagnostics (truncated / truncated_by), not as an
// error.
func TestDeadlineKnobTruncatesVisibly(t *testing.T) {
	s := newTestServer(t, &sleepyModel{perBatch: 5 * time.Millisecond}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0", DeadlineMS: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out ExplainResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	d := out.Result.Diag
	if !d.Truncated || d.TruncatedBy != "deadline" {
		t.Fatalf("1ms-deadline explanation not visibly truncated: %+v", d)
	}
	if d.Completeness >= 1 {
		t.Fatalf("truncated explanation reports completeness %v", d.Completeness)
	}
}

// sleepyModel delays every batch so a short soft deadline reliably trips
// at the first checkpoint.
type sleepyModel struct {
	overlapModel
	perBatch time.Duration
}

func (m *sleepyModel) ScoreBatch(pairs []record.Pair) []float64 {
	time.Sleep(m.perBatch)
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = m.Score(p)
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
