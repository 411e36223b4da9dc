package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"certa/internal/core"
	"certa/internal/dataset"
	"certa/internal/matchers"
	"certa/internal/record"
	"certa/internal/telemetry"
)

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsEndpoint drives one explanation and asserts the scrape
// covers every series group the catalog promises: serving counters,
// admission gauges, per-backend cache/memo/index bridges, and the
// latency histograms fed by the per-computation trace.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		// Exact values: one request was served, none coalesced.
		`certa_explanations_served_total 1`,
		`certa_requests_coalesced_total 0`,
		`certa_backend_requests_total{backend="toy"} 1`,
		`certa_explain_duration_seconds_count{backend="toy"} 1`,
		`certa_http_request_duration_seconds_count{endpoint="/v1/explain"} 1`,
		// Presence: gauges and bridged engine-side counters.
		`certa_uptime_seconds `,
		`certa_admission_in_flight 0`,
		`certa_admission_queue_high_water 0`,
		`certa_score_cache_lookups_total{backend="toy"}`,
		`certa_score_cache_interned_values{backend="toy"}`,
		`certa_index_records{backend="toy"}`,
		// Stage histograms fed from the trace: the engine stages must
		// have produced series.
		`certa_stage_duration_seconds_count{backend="toy",stage="triangles"} 1`,
		`certa_stage_duration_seconds_count{backend="toy",stage="counterfactuals"} 1`,
		`certa_stage_duration_seconds_count{backend="toy",stage="model"}`,
		`# TYPE certa_explain_duration_seconds histogram`,
		`# TYPE certa_explanations_served_total counter`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", text)
	}

	// The interner gauge reads the backend service's count, which the
	// explanation's store keys made non-zero.
	svc, _ := s.CacheService("toy")
	interned := s.metrics.Exposition().Sum("certa_score_cache_interned_values", telemetry.Labels{"backend": "toy"})
	if interned == 0 || interned != float64(svc.InternedValues()) {
		t.Errorf("certa_score_cache_interned_values = %v, service interned %d", interned, svc.InternedValues())
	}

	// A DeepMatcher backend also publishes its attribute-block memo's
	// size, read from the model at scrape time; one explanation fills
	// the memo.
	bench := dataset.MustGenerate("AB", dataset.Options{Seed: 5, MaxRecords: 40, MaxMatches: 20})
	dm := matchers.MustTrain(matchers.DeepMatcher, bench, matchers.Config{Seed: 5, Epochs: 3})
	dms, err := New([]Backend{{
		Name: "dm", Left: bench.Left, Right: bench.Right, Model: dm,
		Options: core.Options{Triangles: 8, Seed: 3},
		Pairs:   []record.Pair{bench.Test[0].Pair},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dms.Close()
	dts := httptest.NewServer(dms)
	defer dts.Close()
	zero := 0
	if resp, body := postJSON(t, dts.URL+"/v1/explain", ExplainRequest{PairIndex: &zero}); resp.StatusCode != http.StatusOK {
		t.Fatalf("DeepMatcher backend: status %d: %s", resp.StatusCode, body)
	}
	if text := scrapeMetrics(t, dts.URL); !strings.Contains(text, `certa_block_memo_entries{backend="dm"}`) {
		t.Errorf("scrape is missing certa_block_memo_entries:\n%s", text)
	}
	blocks := dms.metrics.Exposition().Sum("certa_block_memo_entries", telemetry.Labels{"backend": "dm"})
	if want := dm.BlockStats().Entries; blocks == 0 || blocks != float64(want) {
		t.Errorf("certa_block_memo_entries = %v, the model holds %d blocks", blocks, want)
	}
}

// TestDebugTraceKnob asserts ?debug=trace embeds the span tree and —
// the load-bearing half — that tracing never changes the Result: the
// traced and untraced result documents are byte-identical.
func TestDebugTraceKnob(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, plainBody := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, plainBody)
	}
	resp, tracedBody := postJSON(t, ts.URL+"/v1/explain?debug=trace", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced status %d: %s", resp.StatusCode, tracedBody)
	}
	if resp.Header.Get("X-Certa-Request-Id") == "" {
		t.Error("no X-Certa-Request-Id header")
	}

	var plain, traced ExplainResponse
	if err := json.Unmarshal(plainBody, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tracedBody, &traced); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced response carries a span tree")
	}
	if traced.Trace == nil {
		t.Fatal("?debug=trace response has no span tree")
	}
	if traced.Trace.Name != "explain" || traced.Trace.DurationMS <= 0 {
		t.Errorf("root span = %+v", traced.Trace)
	}
	stages := make(map[string]bool)
	var walk func(sp *telemetry.WireSpan)
	walk = func(sp *telemetry.WireSpan) {
		stages[sp.Name] = true
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(traced.Trace)
	// The warm-cache stages: this is the pair's second explanation, so
	// model-call spans may be absent — the structural stages are always
	// there.
	for _, want := range []string{"original_score", "triangles", "counterfactuals"} {
		if !stages[want] {
			t.Errorf("span tree has no %q span (got %v)", want, stages)
		}
	}

	// Byte-identity with tracing on: the trace rides outside the result.
	pr, err := json.Marshal(plain.Result)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := json.Marshal(traced.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pr, tr) {
		t.Errorf("traced result differs from untraced result:\n%s\n%s", pr, tr)
	}
}

// TestRequestLogging asserts Options.Logger receives one structured
// summary line per request, joined to the response by request ID,
// carrying the stage breakdown for computation leaders, and saying
// which tier answered: a memo replay logs memoized=true and no stages.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := newTestServer(t, overlapModel{}, Options{Logger: logger, ResultMemo: 4}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	reqID := resp.Header.Get("X-Certa-Request-Id")
	if reqID == "" {
		t.Fatal("no X-Certa-Request-Id header")
	}
	line := buf.String()
	for _, want := range []string{
		"msg=explain",
		"req_id=" + reqID,
		"backend=toy",
		"pair=l0|r0",
		"status=200",
		"coalesced=false",
		"memoized=false",
		"stages=",
		"triangles=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("log line is missing %q:\n%s", want, line)
		}
	}
	if strings.Contains(line, "worker=") {
		t.Errorf("unnamed server logged a worker attribute:\n%s", line)
	}

	buf.Reset()
	resp, body = postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, body)
	}
	line = buf.String()
	for _, want := range []string{"req_id=" + resp.Header.Get("X-Certa-Request-Id"), "coalesced=false", "memoized=true"} {
		if !strings.Contains(line, want) {
			t.Errorf("memo replay log line is missing %q:\n%s", want, line)
		}
	}
	if strings.Contains(line, "stages=") {
		t.Errorf("memo replay logged a stage breakdown it never computed:\n%s", line)
	}
}
