package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"certa/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestWireGolden pins the serialized form of every server wire type
// that is not already covered by the repo-root ExplainResponse golden:
// the ExplainRequest knob set (including the lattice_prune policy),
// BatchResponse, ErrorResponse and HealthResponse. The fixture is built
// from fixed values, so the test asserts schema stability (field names,
// omitempty decisions, nesting), not server behavior: adding, renaming or
// untagging a field fails here until the golden is deliberately
// refreshed with -update-golden. certa-lint's wiretag analyzer
// requires this file to be referenced from each type's doc comment.
func TestWireGolden(t *testing.T) {
	doc := struct {
		Request ExplainRequest `json:"request"`
		Batch   BatchResponse  `json:"batch"`
		Error   ErrorResponse  `json:"error"`
		Health  HealthResponse `json:"health"`
	}{
		Request: ExplainRequest{
			Benchmark:  "AB",
			LeftID:     "l1",
			RightID:    "r1",
			DeadlineMS: 500,
			CallBudget: 250,
			TopK:       2,
			LatticePrune: &WirePrunePolicy{
				Threshold: 0.125,
				MinLevels: 2,
			},
		},
		Batch: BatchResponse{
			Responses: []ExplainResponse{
				{Benchmark: "AB", PairKey: "l1|r1",
					Trace: &telemetry.WireSpan{
						Name: "explain", DurationMS: 12.5,
						Children: []*telemetry.WireSpan{
							{Name: "triangles", StartMS: 0.25, DurationMS: 4, Items: 6},
							{Name: "counterfactuals", StartMS: 4.5, DurationMS: 8},
						},
					}},
				{Benchmark: "AB", PairKey: "", Error: "pair not found"},
			},
		},
		Error:  ErrorResponse{Error: "backend \"nope\" not found"},
		Health: HealthResponse{Status: "ok", UptimeMS: 1250, Backends: []string{"AB", "BA"}},
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "wire_golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden after a deliberate schema change)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire schema drifted from %s (run with -update-golden after a deliberate schema change)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
