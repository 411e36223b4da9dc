package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"certa/internal/record"
)

// outOfRangeKnobs holds one request per rejected knob value, with the
// field its error must name.
var outOfRangeKnobs = []struct {
	field string
	req   ExplainRequest
}{
	{"deadline_ms", ExplainRequest{LeftID: "l0", RightID: "r0", DeadlineMS: -1}},
	{"call_budget", ExplainRequest{LeftID: "l0", RightID: "r0", CallBudget: -1}},
	{"augment_budget", ExplainRequest{LeftID: "l0", RightID: "r0", AugmentBudget: -1}},
	{"top_k", ExplainRequest{LeftID: "l0", RightID: "r0", TopK: -1}},
	{"lattice_prune.threshold", ExplainRequest{LeftID: "l0", RightID: "r0", LatticePrune: &WirePrunePolicy{Threshold: -0.25}}},
	{"lattice_prune.threshold", ExplainRequest{LeftID: "l0", RightID: "r0", LatticePrune: &WirePrunePolicy{Threshold: 2}}},
	{"lattice_prune.min_levels", ExplainRequest{LeftID: "l0", RightID: "r0", LatticePrune: &WirePrunePolicy{Threshold: 0.25, MinLevels: -1}}},
}

// TestOutOfRangeKnobsRejected: a negative integer knob or a prune
// threshold outside [0, 1] gets a 400 naming the field on /v1/explain,
// and a per-item error naming it in a batch, whose other items still
// run. The closed ends of the threshold's range stay valid.
func TestOutOfRangeKnobsRejected(t *testing.T) {
	s := newTestServer(t, overlapModel{}, Options{}, nil)
	ts := httptest.NewServer(s)
	defer ts.Close()

	valid := ExplainRequest{LeftID: "l0", RightID: "r0"}
	for _, c := range outOfRangeKnobs {
		resp, body := postJSON(t, ts.URL+"/v1/explain", c.req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.field) {
			t.Errorf("%s: /v1/explain answered %d %s, want a 400 naming the field", c.field, resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+"/v1/explain/batch", BatchRequest{Requests: []ExplainRequest{c.req, valid}})
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Responses) != 2 {
			t.Fatalf("%s: batch answered %d %s (%v)", c.field, resp.StatusCode, body, err)
		}
		if !strings.Contains(br.Responses[0].Error, c.field) {
			t.Errorf("%s: batch item error %q does not name the field", c.field, br.Responses[0].Error)
		}
		if br.Responses[1].Error != "" || br.Responses[1].Result == nil {
			t.Errorf("%s: the valid batch item failed: %q", c.field, br.Responses[1].Error)
		}
	}
	for _, threshold := range []float64{0, 1} {
		req := valid
		req.LatticePrune = &WirePrunePolicy{Threshold: threshold}
		if resp, body := postJSON(t, ts.URL+"/v1/explain", req); resp.StatusCode != http.StatusOK {
			t.Errorf("lattice_prune.threshold %v: status %d: %s", threshold, resp.StatusCode, body)
		}
	}
}

// FuzzExplainRequest decodes arbitrary bytes the way Server.decode does
// and admits the result the way both explain endpoints do — knob
// validation, pair resolution against the test sources — then builds
// the coalescing key. None of it may panic, and an admitted request must
// carry a pair of two records and in-range knobs. The seed corpus is the
// request shapes the server tests send plus every rejected knob.
func FuzzExplainRequest(f *testing.F) {
	idx := 1
	seeds := []ExplainRequest{
		{LeftID: "l0", RightID: "r0"},
		{PairIndex: &idx},
		{LeftID: "l0", RightID: "r0", DeadlineMS: 60_000},
		{LeftID: "l0", RightID: "r0", TopK: 2},
		{LeftID: "l0", RightID: "r1", AugmentBudget: 1},
		{PairIndex: &idx, CallBudget: 500},
		{LeftID: "l0", RightID: "r0", LatticePrune: &WirePrunePolicy{Threshold: 0.25, MinLevels: 1}},
		{Benchmark: "AB", LeftID: "l1", RightID: "r1", DeadlineMS: 500, CallBudget: 250, TopK: 2,
			LatticePrune: &WirePrunePolicy{Threshold: 0.125, MinLevels: 2}},
		{Left: &WireRecord{ID: "q1", Values: []string{"widget0 alpha0", "desc0 common0 filler0", "10"}},
			Right: &WireRecord{Values: []string{"widget0 alpha0 extra", "desc0 common0 filler0", "10"}}},
	}
	for _, c := range outOfRangeKnobs {
		seeds = append(seeds, c.req)
	}
	for _, req := range seeds {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	left, right := testSources(24)
	b := &backend{name: "toy", left: left, right: right}
	for i := 0; i < 4; i++ {
		b.pairs = append(b.pairs, record.Pair{Left: left.Records[i], Right: right.Records[i]})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ExplainRequest
		if decodeStrict(bytes.NewReader(data), &req) != nil {
			return
		}
		p, err := b.resolvePair(&req)
		if err != nil {
			return
		}
		if p.Left == nil || p.Right == nil {
			t.Fatalf("%s resolved to a pair with a nil record", data)
		}
		k := req.knobs()
		if k.deadlineMS < 0 || k.callBudget < 0 || k.augmentBudget < 0 || k.topK < 0 ||
			k.pruneMinLevels < 0 || !(k.pruneThreshold >= 0 && k.pruneThreshold <= 1) {
			t.Fatalf("%s was admitted with out-of-range knobs %+v", data, k)
		}
		coalesceKey(b.name, k, p)
	})
}
