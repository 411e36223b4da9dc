package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"certa/internal/telemetry"
)

// TestResultMemoReplaysIdenticalBody: with the memo enabled, a repeat
// of an already-answered deterministic request is flagged memoized and
// replays the exact bytes of the first answer.
func TestResultMemoReplaysIdenticalBody(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{ResultMemo: 8}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := ExplainRequest{LeftID: "l0", RightID: "r0"}
	resp1, body1 := postJSON(t, ts.URL+"/v1/explain", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Certa-Memoized"); got != "false" {
		t.Fatalf("X-Certa-Memoized = %q on a first request", got)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/explain", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Certa-Memoized"); got != "true" {
		t.Fatalf("X-Certa-Memoized = %q on a repeat request", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("memoized body differs from the computed one:\n%s\n%s", body1, body2)
	}

	if got := s.memoized.Value(); got != 1 {
		t.Fatalf("memoized = %d, want 1", got)
	}
	m := s.metrics.Exposition()
	if m.Family("certa_result_memo_capacity") == nil {
		t.Fatal("result memo series missing with the memo enabled")
	}
	capacity, entries := m.Sum("certa_result_memo_capacity", toy), m.Sum("certa_result_memo_entries", toy)
	lookups, hits := m.Sum("certa_result_memo_lookups_total", toy), m.Sum("certa_result_memo_hits_total", toy)
	if capacity != 8 || lookups != 2 || hits != 1 || entries != 1 {
		t.Fatalf("memo series = capacity %v, %v lookups, %v hits, %v entries; want 8, 2, 1, 1", capacity, lookups, hits, entries)
	}
	if rate := hits / lookups; rate != 0.5 {
		t.Fatalf("memo hit rate = %v, want 0.5", rate)
	}
}

// toy selects the test backend's series in a scrape.
var toy = telemetry.Labels{"backend": "toy"}

// TestResultMemoKeyedByKnobs: requests that differ only in engine knobs
// memoize separately — a knob change must never replay another
// configuration's body.
func TestResultMemoKeyedByKnobs(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{ResultMemo: 8}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, plain := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	resp, topk := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0", TopK: 1})
	if got := resp.Header.Get("X-Certa-Memoized"); got != "false" {
		t.Fatalf("X-Certa-Memoized = %q across a knob change", got)
	}
	if bytes.Equal(plain, topk) {
		t.Fatal("top_k=1 body identical to the unknobbed one — knob not in the memo key?")
	}
}

// TestResultMemoExcludesDeadlines: deadline-bearing requests are
// nondeterministic (their truncation point depends on the wall clock),
// so they are neither served from nor stored into the memo.
func TestResultMemoExcludesDeadlines(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{ResultMemo: 8}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := ExplainRequest{LeftID: "l0", RightID: "r0", DeadlineMS: 60_000}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/explain", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Certa-Memoized"); got != "false" {
			t.Fatalf("deadline request %d: X-Certa-Memoized = %q", i, got)
		}
	}
	m := s.metrics.Exposition()
	if lookups, entries := m.Sum("certa_result_memo_lookups_total", toy), m.Sum("certa_result_memo_entries", toy); lookups != 0 || entries != 0 {
		t.Fatalf("deadline requests touched the memo: %v lookups, %v entries", lookups, entries)
	}
}

// TestResultMemoTraceBypass: ?debug=trace recomputes with tracing
// enabled rather than replaying a stored body, and leaves the memo
// untouched.
func TestResultMemoTraceBypass(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{ResultMemo: 8}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := ExplainRequest{LeftID: "l0", RightID: "r0"}
	postJSON(t, ts.URL+"/v1/explain", req)

	resp, body := postJSON(t, ts.URL+"/v1/explain?debug=trace", req)
	if got := resp.Header.Get("X-Certa-Memoized"); got != "false" {
		t.Fatalf("X-Certa-Memoized = %q on a traced request", got)
	}
	var out ExplainResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil {
		t.Fatal("traced request came back without a trace — replayed from the memo?")
	}
	if lookups := s.metrics.Exposition().Sum("certa_result_memo_lookups_total", toy); lookups != 1 {
		t.Fatalf("traced request consulted the memo: %v lookups", lookups)
	}
}

// TestResultMemoDisabledByDefault: Options.ResultMemo zero means no
// memo — repeats recompute and /v1/metrics has no result memo series.
func TestResultMemoDisabledByDefault(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := ExplainRequest{LeftID: "l0", RightID: "r0"}
	postJSON(t, ts.URL+"/v1/explain", req)
	resp, _ := postJSON(t, ts.URL+"/v1/explain", req)
	if got := resp.Header.Get("X-Certa-Memoized"); got != "false" {
		t.Fatalf("X-Certa-Memoized = %q with the memo disabled", got)
	}
	if got := s.memoized.Value(); got != 0 {
		t.Fatalf("memoized = %d with the memo disabled", got)
	}
	if s.metrics.Exposition().Family("certa_result_memo_capacity") != nil {
		t.Fatal("result memo series present with the memo disabled")
	}
}

// TestResultMemoLRUBound: the request table keeps at most capacity
// settled calls and evicts in least-recently-used order, with recency
// set by replays.
func TestResultMemoLRUBound(t *testing.T) {
	tbl := newRequestTable(2)
	ctx := context.Background()
	computed := map[string]int{}
	get := func(key string) (body string, replayed bool) {
		t.Helper()
		b, joined, replayed, err := tbl.do(ctx, ctx, key, true, func(context.Context) ([]byte, error) {
			computed[key]++
			return []byte(fmt.Sprintf("%s#%d", key, computed[key])), nil
		})
		if err != nil || joined {
			t.Fatalf("do(%q): joined %v, err %v", key, joined, err)
		}
		if _, _, kept := tbl.stats(); kept > 2 {
			t.Fatalf("after %q the table keeps %d calls, capacity 2", key, kept)
		}
		return string(b), replayed
	}
	steps := []struct {
		key      string
		body     string
		replayed bool
	}{
		{"a", "a#1", false},
		{"b", "b#1", false},
		{"a", "a#1", true},  // a is now the most recent
		{"c", "c#1", false}, // evicts b, the coldest
		{"a", "a#1", true},  // a survived because its replay refreshed it
		{"b", "b#2", false}, // b was evicted: computed again, evicting c
		{"c", "c#2", false}, // c went before a, which was replayed later
	}
	for i, st := range steps {
		if body, replayed := get(st.key); body != st.body || replayed != st.replayed {
			t.Fatalf("step %d (%s): body %q, replayed %v; want %q, %v", i, st.key, body, replayed, st.body, st.replayed)
		}
	}
	if lookups, hits, kept := tbl.stats(); lookups != 7 || hits != 2 || kept != 2 {
		t.Fatalf("lookups, hits, kept = %d, %d, %d, want 7, 2, 2", lookups, hits, kept)
	}
}

// TestResultMemoNeverKeepsErrors: a failed computation leaves the
// request table when it settles, so the repeat after the fault is
// computed afresh and answers exactly as a fresh server does, and only
// the success is kept.
func TestResultMemoNeverKeepsErrors(t *testing.T) {
	m := &armedPanicModel{}
	m.armed.Store(true)
	s := newTestServer(t, m, Options{ResultMemo: 8}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := ExplainRequest{LeftID: "l0", RightID: "r0"}
	resp, body := postJSON(t, ts.URL+"/v1/explain", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("armed model: status %d, want 500: %s", resp.StatusCode, body)
	}

	m.armed.Store(false)
	resp, got := postJSON(t, ts.URL+"/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disarmed model: status %d: %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-Certa-Memoized"); h != "false" {
		t.Fatalf("X-Certa-Memoized = %q after a failed computation", h)
	}
	fresh := httptest.NewServer(newTestServer(t, &armedPanicModel{}, Options{ResultMemo: 8}, nil))
	defer fresh.Close()
	if _, want := postJSON(t, fresh.URL+"/v1/explain", req); !bytes.Equal(got, want) {
		t.Fatalf("after the fault the server answers\n%s\nwant the fresh server's\n%s", got, want)
	}
	if entries := s.metrics.Exposition().Sum("certa_result_memo_entries", toy); entries != 1 {
		t.Fatalf("certa_result_memo_entries = %v, want 1 (the success only)", entries)
	}
}

// TestResultMemoBatchItems: batch items share the memo with single
// requests — a batch repeating an answered pair replays its body.
func TestResultMemoBatchItems(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{ResultMemo: 8}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, single := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})

	resp, body := postJSON(t, ts.URL+"/v1/explain/batch", BatchRequest{
		Requests: []ExplainRequest{{LeftID: "l0", RightID: "r0"}, {LeftID: "l1", RightID: "r1"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	item0, err := json.Marshal(out.Responses[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(single), bytes.TrimSpace(item0)) {
		t.Fatalf("batch item differs from the memoized single body:\n%s\n%s", single, item0)
	}
	if got := s.memoized.Value(); got != 1 {
		t.Fatalf("memoized = %d after a batch repeat, want 1", got)
	}
}

// TestResultMemoConcurrentRepeats: hammering one pair from many
// goroutines with the memo enabled stays race-free and byte-stable
// (exercised under -race in CI).
func TestResultMemoConcurrentRepeats(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{ResultMemo: 4}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, want := postJSON(t, ts.URL+"/v1/explain", ExplainRequest{LeftID: "l0", RightID: "r0"})
	post := func() ([]byte, error) {
		resp, err := http.Post(ts.URL+"/v1/explain", "application/json",
			bytes.NewReader([]byte(`{"left_id":"l0","right_id":"r0"}`)))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out.Bytes())
		}
		return out.Bytes(), nil
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 4; i++ {
				got, err := post()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(want, got) {
					errs <- fmt.Errorf("concurrent repeat diverged:\n%s\n%s", want, got)
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
