package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
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
