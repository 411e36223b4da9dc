package certa_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"certa"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// wireResult builds a small, fully-populated Result by hand, covering
// every field of the wire schema (saliency map keys, counterfactuals
// with their unexported original score, sufficiency map, diagnostics
// including anytime truncation).
func wireResult(t *testing.T) certa.ExplainResponse {
	t.Helper()
	schemaL, err := certa.NewSchema("Abt", "name", "price")
	if err != nil {
		t.Fatal(err)
	}
	schemaR, err := certa.NewSchema("Buy", "name", "price")
	if err != nil {
		t.Fatal(err)
	}
	l, err := certa.NewRecord("l1", schemaL, "acme widget", "10")
	if err != nil {
		t.Fatal(err)
	}
	r, err := certa.NewRecord("r1", schemaR, "acme widget deluxe", "12")
	if err != nil {
		t.Fatal(err)
	}
	pair := certa.Pair{Left: l, Right: r}
	cfRight, err := certa.NewRecord("r1", schemaR, "other thing", "12")
	if err != nil {
		t.Fatal(err)
	}
	cfPair := certa.Pair{Left: l, Right: cfRight}

	sal := &certa.Saliency{
		Pair:       pair,
		Prediction: 0.875,
		Scores: map[certa.AttrRef]float64{
			{Side: certa.Left, Attr: "name"}:   0.75,
			{Side: certa.Left, Attr: "price"}:  0,
			{Side: certa.Right, Attr: "name"}:  0.5,
			{Side: certa.Right, Attr: "price"}: 0.25,
		},
	}
	cf := certa.Counterfactual{
		Original:    pair,
		Pair:        cfPair,
		Changed:     []certa.AttrRef{{Side: certa.Right, Attr: "name"}},
		Score:       0.125,
		Probability: 0.5,
	}.WithOriginalScore(0.875)

	return certa.ExplainResponse{
		Benchmark: "AB",
		PairKey:   pair.Key(),
		Result: &certa.Result{
			Saliency:        sal,
			Counterfactuals: []certa.Counterfactual{cf},
			BestSet:         certa.AttrSet{Side: certa.Right, Attrs: []string{"name"}},
			BestSufficiency: 0.5,
			Sufficiency:     map[string]float64{"R:{name}": 0.5},
			Diag: certa.Diagnostics{
				LeftTriangles:       2,
				RightTriangles:      2,
				AugmentedRight:      1,
				LatticeQueries:      12,
				LatticePredictions:  9,
				ExpectedPredictions: 8,
				SavedPredictions:    -1,
				TriangleSearchCalls: 7,
				Flips:               3,
				ModelCalls:          17,
				BatchCalls:          5,
				CacheLookups:        23,
				CacheHits:           6,
				Truncated:           true,
				TruncatedBy:         certa.TruncatedByCallBudget,
				BudgetSpent:         17,
				Completeness:        0.625,
			},
		},
	}
}

// TestWireFormatGolden pins the JSON wire schema shared by the HTTP API
// (internal/server) and certa-explain -json: marshaling a
// fully-populated ExplainResponse must reproduce the golden file
// byte-for-byte, and the golden file must round-trip back through the
// public types into the identical document. A deliberate schema change
// updates the golden with -update-golden; an accidental one fails here.
func TestWireFormatGolden(t *testing.T) {
	doc := wireResult(t)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "explain_response_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden after a deliberate schema change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire schema drifted from golden file.\n got: %s\nwant: %s", got, want)
	}

	// Round trip: golden -> types -> bytes must be the identity, which
	// proves no field is write-only (e.g. the counterfactual's
	// unexported original score survives).
	var back certa.ExplainResponse
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatalf("golden file does not unmarshal: %v", err)
	}
	again, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	again = append(again, '\n')
	if !bytes.Equal(again, want) {
		t.Fatalf("round trip is lossy.\n got: %s\nwant: %s", again, want)
	}
	if len(back.Result.Counterfactuals) != 1 || !back.Result.Counterfactuals[0].Flips() {
		t.Fatal("counterfactual lost its original score through the round trip (Flips() broken)")
	}
}
