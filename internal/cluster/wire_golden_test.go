package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestWireGolden pins the serialized form of the router's own wire
// document, RingHealthResponse. Explanation bodies are deliberately
// absent: the router relays worker bytes verbatim, so their schema is
// pinned by the server package's golden.
// Built from fixed values, the test asserts schema stability, not
// router behavior; refresh with -update-golden after a deliberate
// change. certa-lint's wiretag analyzer requires this file to be
// referenced from each type's doc comment.
func TestWireGolden(t *testing.T) {
	doc := struct {
		Health RingHealthResponse `json:"health"`
	}{
		Health: RingHealthResponse{
			Status:         "degraded",
			UptimeMS:       1250,
			Benchmarks:     []string{"AB"},
			Workers:        2,
			HealthyWorkers: 1,
		},
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
