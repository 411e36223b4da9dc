package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"certa/internal/core"
	"certa/internal/record"
)

// armedPanicModel scores like overlapModel, but while armed every
// scoring batch after its first panics. The first batch holds only the
// original pair, so the panic strikes inside the triangle search, where
// a multi-pair batch is sharded over workpool goroutines at
// Parallelism >= 2.
type armedPanicModel struct {
	overlapModel
	armed   atomic.Bool
	batches atomic.Int64
}

func (m *armedPanicModel) ScoreBatch(pairs []record.Pair) []float64 {
	if m.batches.Add(1) > 1 && m.armed.Load() {
		panic("injected model bug")
	}
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = m.Score(p)
	}
	return out
}

// newParallelServer is newTestServer's backend at the given Parallelism,
// logging into logs.
func newParallelServer(t *testing.T, m *armedPanicModel, parallelism int, logs *bytes.Buffer) *Server {
	t.Helper()
	left, right := testSources(24)
	s, err := New([]Backend{{
		Name: "toy", Left: left, Right: right, Model: m,
		Options: core.Options{Triangles: 8, Seed: 3, Parallelism: parallelism},
	}}, Options{Logger: slog.New(slog.NewTextHandler(logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestModelPanicIsContainedAtAnyParallelism: a model that panics inside
// a scoring shard fails its request with a 500 (or a per-item error in a
// batch) at any Parallelism, the server stays up, and the claimed score
// keys are released — once the model is disarmed, the same pair explains
// on the same service exactly as on a fresh server.
func TestModelPanicIsContainedAtAnyParallelism(t *testing.T) {
	req := ExplainRequest{LeftID: "l0", RightID: "r0"}
	for _, parallelism := range []int{1, 8} {
		for _, endpoint := range []string{"/v1/explain", "/v1/explain/batch"} {
			t.Run(fmt.Sprintf("p%d%s", parallelism, strings.ReplaceAll(endpoint, "/", "-")), func(t *testing.T) {
				var body any = req
				if endpoint == "/v1/explain/batch" {
					body = BatchRequest{Requests: []ExplainRequest{req}}
				}
				var logs bytes.Buffer
				m := &armedPanicModel{}
				m.armed.Store(true)
				s := newParallelServer(t, m, parallelism, &logs)
				ts := httptest.NewServer(s)
				defer ts.Close()

				resp, got := postJSON(t, ts.URL+endpoint, body)
				if endpoint == "/v1/explain" {
					if resp.StatusCode != http.StatusInternalServerError {
						t.Fatalf("status %d, want 500: %s", resp.StatusCode, got)
					}
				} else {
					var br BatchResponse
					if err := json.Unmarshal(got, &br); err != nil || len(br.Responses) != 1 {
						t.Fatalf("batch response %s: %v", got, err)
					}
					got = []byte(br.Responses[0].Error)
				}
				if !strings.Contains(string(got), "panicked: injected model bug") {
					t.Fatalf("error does not surface the panic: %s", got)
				}
				if strings.Contains(string(got), "goroutine ") {
					t.Fatalf("error carries a stack: %s", got)
				}
				if !strings.Contains(logs.String(), "(*armedPanicModel).ScoreBatch") {
					t.Fatalf("request log does not record the panic's stack:\n%s", logs.String())
				}

				hresp, err := http.Get(ts.URL + "/v1/healthz")
				if err != nil {
					t.Fatal(err)
				}
				hresp.Body.Close()
				if hresp.StatusCode != http.StatusOK {
					t.Fatalf("healthz %d after a contained panic", hresp.StatusCode)
				}

				m.armed.Store(false)
				resp, again := postJSON(t, ts.URL+endpoint, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("disarmed request: status %d: %s", resp.StatusCode, again)
				}
				fresh := httptest.NewServer(newParallelServer(t, &armedPanicModel{}, parallelism, new(bytes.Buffer)))
				defer fresh.Close()
				_, want := postJSON(t, fresh.URL+endpoint, body)
				if !bytes.Equal(again, want) {
					t.Fatalf("after the panic the service answers\n%s\nwant the fresh server's\n%s", again, want)
				}
			})
		}
	}
}

// TestCoalescedJoinersShareTheLeadersError: n identical requests attach
// to one gated computation whose model then fails, once with a returned
// error and once with a panic. Every request gets the same 500 body
// from that one failure (a joiner never re-issues a failed computation,
// so the model fails once and n-1 requests count as coalesced), the
// admission slot drains, and once the model is disarmed the same
// request is a 200 byte-identical to a fresh server's.
func TestCoalescedJoinersShareTheLeadersError(t *testing.T) {
	const n = 6
	req := ExplainRequest{LeftID: "l1", RightID: "r1"}
	opts := Options{MaxInFlight: 2, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprintf("panics=%v", panics), func(t *testing.T) {
			m := &gatedModel{gate: make(chan struct{}), panics: panics}
			m.armed.Store(true)
			s := newTestServer(t, m, opts, nil)
			ts := httptest.NewServer(s)
			defer ts.Close()

			data, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies := make([][]byte, n)
			statuses := make([]int, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(data))
					if err != nil {
						t.Error(err)
						return
					}
					defer resp.Body.Close()
					statuses[i] = resp.StatusCode
					if bodies[i], err = io.ReadAll(resp.Body); err != nil {
						t.Error(err)
					}
				}(i)
			}
			waitAttached(t, s, n)
			close(m.gate)
			wg.Wait()

			for i := range bodies {
				if statuses[i] != http.StatusInternalServerError {
					t.Fatalf("request %d: status %d, want 500: %s", i, statuses[i], bodies[i])
				}
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Fatalf("request %d body differs:\n%s\n%s", i, bodies[i], bodies[0])
				}
			}
			t.Logf("every request: %s", bytes.TrimSpace(bodies[0]))
			if !strings.Contains(string(bodies[0]), "injected model") {
				t.Fatalf("the error does not surface the model's failure: %s", bodies[0])
			}
			if got := m.failed.Load(); got != 1 {
				t.Fatalf("the model failed %d batches, want 1: a joiner re-issued the failed computation", got)
			}
			ex := s.metrics.Exposition()
			if got := ex.Sum("certa_requests_coalesced_total", nil); got != n-1 {
				t.Fatalf("certa_requests_coalesced_total = %v, want %d", got, n-1)
			}
			if got := ex.Sum("certa_admission_in_flight", nil); got != 0 {
				t.Fatalf("certa_admission_in_flight = %v after every request failed, want 0", got)
			}

			m.armed.Store(false)
			resp, again := postJSON(t, ts.URL+"/v1/explain", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("disarmed request: status %d: %s", resp.StatusCode, again)
			}
			fresh := httptest.NewServer(newTestServer(t, overlapModel{}, opts, nil))
			defer fresh.Close()
			_, want := postJSON(t, fresh.URL+"/v1/explain", req)
			if !bytes.Equal(again, want) {
				t.Fatalf("after the failure the server answers\n%s\nwant the fresh server's\n%s", again, want)
			}
		})
	}
}
