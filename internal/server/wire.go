package server

import (
	"fmt"
	"strconv"
	"strings"

	"certa/internal/core"
	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/telemetry"
)

// The wire types of the HTTP API. certa-explain -json prints the same
// ExplainResponse document, so the CLI and the server share one schema,
// and the golden-file round-trip test at the repo root pins it.

// WireRecord is an inline record in a request body: the values of one
// record in the backend's schema order. Requests may address records by
// ID instead (left_id/right_id), which is the common case.
type WireRecord struct {
	ID     string   `json:"id,omitempty"`
	Values []string `json:"values"`
}

// ExplainRequest asks for one explanation. The pair is addressed in one
// of three ways, in precedence order: inline records (left+right),
// record IDs resolved in the backend's tables (left_id+right_id), or an
// index into the backend's registered pair list (pair_index). A
// negative integer knob or a prune threshold outside [0, 1] is rejected
// with a 400 (a per-item error in a batch).
type ExplainRequest struct {
	// Benchmark names the backend (dataset/model) to explain against.
	// Optional when the server hosts exactly one.
	Benchmark string `json:"benchmark,omitempty"`

	LeftID    string      `json:"left_id,omitempty"`
	RightID   string      `json:"right_id,omitempty"`
	PairIndex *int        `json:"pair_index,omitempty"`
	Left      *WireRecord `json:"left,omitempty"`
	Right     *WireRecord `json:"right,omitempty"`

	// DeadlineMS maps onto Options.Deadline: a soft per-explanation
	// wall-clock allowance that truncates to the best-so-far explanation
	// (diagnostics.truncated) instead of erroring. 0 = none.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// CallBudget maps onto Options.CallBudget: a deterministic cap on
	// unique model calls. 0 = unlimited.
	CallBudget int `json:"call_budget,omitempty"`
	// AugmentBudget maps onto Options.AugmentBudget: the cap on
	// token-drop variants the augmented-support search may generate per
	// missing support. 0 = the backend's default (200).
	AugmentBudget int `json:"augment_budget,omitempty"`
	// TopK shapes the response: only the k most salient attributes and
	// at most k counterfactual examples are returned. 0 = everything.
	TopK int `json:"top_k,omitempty"`
	// LatticePrune maps onto Options.LatticePrune: the estimator mode
	// that stops exploring a lattice when a completed level's flip
	// fraction reaches the threshold. Omitted (or zero threshold) =
	// exact exploration. Pruned responses report the skipped work in
	// diagnostics.pruned_queries / diagnostics.prune_levels.
	LatticePrune *WirePrunePolicy `json:"lattice_prune,omitempty"`
}

// WirePrunePolicy is the request form of lattice.PrunePolicy. Its
// serialized form is pinned by testdata/wire_golden.json
// (wire_golden_test.go; refresh with -update-golden).
type WirePrunePolicy struct {
	// Threshold is the per-level flip fraction at which a lattice
	// counts as saturated and stops exploring, in [0, 1]; 0 disables
	// pruning.
	Threshold float64 `json:"threshold"`
	// MinLevels is the number of lattice levels that must be fully
	// explored before pruning may trigger (0 = the engine default of 2).
	MinLevels int `json:"min_levels,omitempty"`
}

// ExplainResponse is the body of a successful explanation, and one
// element of a batch response (where Error marks per-item failures).
// Its serialized form is pinned by the golden fixture
// testdata/explain_response_golden.json at the repo root (wire_test.go;
// refresh deliberate schema changes with -update-golden).
type ExplainResponse struct {
	Benchmark string       `json:"benchmark"`
	PairKey   string       `json:"pair_key"`
	Result    *core.Result `json:"result,omitempty"`
	Error     string       `json:"error,omitempty"`
	// Trace is the per-stage wall-time span tree of this computation,
	// present only when the request asked for it (?debug=trace). Traced
	// requests bypass coalescing — wall times are per-computation, so a
	// shared body could not carry them — and are therefore a debugging
	// tool, not a production knob. The Result itself is byte-identical
	// with and without tracing.
	Trace *telemetry.WireSpan `json:"trace,omitempty"`
}

// BatchRequest asks for many explanations in one round trip. Items are
// admitted and coalesced individually — identical items share one
// computation — and per-item failures (including overload rejections)
// are reported in the matching response element.
type BatchRequest struct {
	Requests []ExplainRequest `json:"requests"`
}

// BatchResponse is index-aligned with BatchRequest.Requests. Its
// serialized form is pinned by testdata/wire_golden.json
// (wire_golden_test.go; refresh with -update-golden).
type BatchResponse struct {
	Responses []ExplainResponse `json:"responses"`
}

// ErrorResponse is the body of every non-200 response. Its serialized
// form is pinned by testdata/wire_golden.json (wire_golden_test.go).
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the body of GET /v1/healthz. Its serialized form
// is pinned by testdata/wire_golden.json (wire_golden_test.go).
type HealthResponse struct {
	Status   string   `json:"status"`
	UptimeMS float64  `json:"uptime_ms"`
	Backends []string `json:"backends"`
}

// resolvePair validates the request's knobs and materializes its pair
// against a backend: the one admission check both explain endpoints
// share.
func (b *backend) resolvePair(req *ExplainRequest) (record.Pair, error) {
	if err := req.validate(); err != nil {
		return record.Pair{}, err
	}
	return ResolvePair(req, b.left, b.right, b.pairs)
}

// validate rejects out-of-range knobs: every integer knob is 0 (off, or
// the default) or positive, and a prune threshold is a fraction in
// [0, 1]. Read as "off" instead, a negative deadline would run unbounded
// yet never be memoized, and a threshold above 1 would shorten the
// augmented search's patience without ever pruning a lattice.
func (r *ExplainRequest) validate() error {
	ints := [...]struct {
		field string
		v     int
	}{
		{"deadline_ms", r.DeadlineMS},
		{"call_budget", r.CallBudget},
		{"augment_budget", r.AugmentBudget},
		{"top_k", r.TopK},
	}
	for _, k := range ints {
		if k.v < 0 {
			return fmt.Errorf("%s %d is negative", k.field, k.v)
		}
	}
	if lp := r.LatticePrune; lp != nil {
		if !(lp.Threshold >= 0 && lp.Threshold <= 1) {
			return fmt.Errorf("lattice_prune.threshold %v is outside [0, 1]", lp.Threshold)
		}
		if lp.MinLevels < 0 {
			return fmt.Errorf("lattice_prune.min_levels %d is negative", lp.MinLevels)
		}
	}
	return nil
}

// ResolvePair materializes a request's pair against a backend's source
// tables and registered pair list. Exported for the cluster router,
// which must resolve a request exactly the way the worker will — the
// canonical content key of the resolved pair is the shard key, so any
// divergence here would route requests to workers whose caches can
// never hit. The serving path itself goes through the same function.
func ResolvePair(req *ExplainRequest, left, right *record.Table, pairs []record.Pair) (record.Pair, error) {
	switch {
	case req.Left != nil || req.Right != nil:
		if req.Left == nil || req.Right == nil {
			return record.Pair{}, fmt.Errorf("inline pair needs both left and right records")
		}
		l, err := inlineRecord(req.Left, left.Schema, "left")
		if err != nil {
			return record.Pair{}, err
		}
		r, err := inlineRecord(req.Right, right.Schema, "right")
		if err != nil {
			return record.Pair{}, err
		}
		return record.Pair{Left: l, Right: r}, nil
	case req.LeftID != "" || req.RightID != "":
		if req.LeftID == "" || req.RightID == "" {
			return record.Pair{}, fmt.Errorf("need both left_id and right_id")
		}
		l, ok := left.Get(req.LeftID)
		if !ok {
			return record.Pair{}, fmt.Errorf("no record %q in source %s", req.LeftID, left.Schema.Name)
		}
		r, ok := right.Get(req.RightID)
		if !ok {
			return record.Pair{}, fmt.Errorf("no record %q in source %s", req.RightID, right.Schema.Name)
		}
		return record.Pair{Left: l, Right: r}, nil
	case req.PairIndex != nil:
		i := *req.PairIndex
		if i < 0 || i >= len(pairs) {
			return record.Pair{}, fmt.Errorf("pair_index %d out of range [0,%d)", i, len(pairs))
		}
		return pairs[i], nil
	}
	return record.Pair{}, fmt.Errorf("request addresses no pair (want left+right, left_id+right_id, or pair_index)")
}

// inlineRecord builds a record from request values under the backend's
// schema.
func inlineRecord(w *WireRecord, schema *record.Schema, side string) (*record.Record, error) {
	id := w.ID
	if id == "" {
		id = "inline-" + side
	}
	r, err := record.New(id, schema, w.Values...)
	if err != nil {
		return nil, fmt.Errorf("inline %s record: %w", side, err)
	}
	return r, nil
}

// knobs are the per-request engine options that participate in the
// coalescing key: requests are shared only when both the pair content
// and the options agree.
type knobs struct {
	deadlineMS     int
	callBudget     int
	augmentBudget  int
	topK           int
	pruneThreshold float64
	pruneMinLevels int
}

func (r *ExplainRequest) knobs() knobs {
	k := knobs{deadlineMS: r.DeadlineMS, callBudget: r.CallBudget, augmentBudget: r.AugmentBudget, topK: r.TopK}
	if r.LatticePrune != nil {
		k.pruneThreshold = r.LatticePrune.Threshold
		k.pruneMinLevels = r.LatticePrune.MinLevels
	}
	return k
}

// coalesceKey renders the identity of a computation: backend, anytime
// options, the addressed record IDs and the canonical pair content (the
// same key the score cache stripes on). The IDs participate because the
// shared response body embeds them (pair_key, record ids): two requests
// may share one body only when they would have received byte-identical
// bodies anyway. Same-content different-ID requests still share all
// their model calls through the score cache — coalescing is only the
// layer above.
func coalesceKey(backendName string, k knobs, p record.Pair) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(len(backendName)))
	b.WriteByte('#')
	b.WriteString(backendName)
	b.WriteString("|d")
	b.WriteString(strconv.Itoa(k.deadlineMS))
	b.WriteString("|b")
	b.WriteString(strconv.Itoa(k.callBudget))
	b.WriteString("|a")
	b.WriteString(strconv.Itoa(k.augmentBudget))
	b.WriteString("|k")
	b.WriteString(strconv.Itoa(k.topK))
	b.WriteString("|pt")
	b.WriteString(strconv.FormatFloat(k.pruneThreshold, 'g', -1, 64))
	b.WriteString("|pm")
	b.WriteString(strconv.Itoa(k.pruneMinLevels))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(len(p.Left.ID)))
	b.WriteByte('#')
	b.WriteString(p.Left.ID)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(len(p.Right.ID)))
	b.WriteByte('#')
	b.WriteString(p.Right.ID)
	b.WriteByte('|')
	b.WriteString(scorecache.Key(p))
	return b.String()
}
