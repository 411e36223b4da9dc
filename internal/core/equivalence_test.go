package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"certa/internal/neighborhood"
)

// TestIndexedScanEquivalence is the single test that gates the
// candidate retrieval swap: explanations sourced from the prebuilt
// index must be byte-identical — the full Result, Diagnostics included
// — to explanations sourced from the historical scan path, at
// Parallelism 1 and 8, under the default guided search, under the
// SeedSearch ablation, under ForceAugmentation (the ranked stream's
// heaviest consumer), and under a CallBudget that truncates mid-search.
func TestIndexedScanEquivalence(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 6)
	// A prebuilt shared index must behave exactly like the per-Explainer
	// build, so the indexed side alternates between the two.
	shared := neighborhood.NewSources(b.Left, b.Right)

	variants := []struct {
		name string
		opts Options
	}{
		{"guided", Options{Triangles: 10, Seed: 5}},
		{"seed-search", Options{Triangles: 10, Seed: 5, SeedSearch: true}},
		{"force-augmentation", Options{Triangles: 6, Seed: 5, ForceAugmentation: true}},
		{"call-budget", Options{Triangles: 10, Seed: 5, CallBudget: 120}},
		{"call-budget-seed-search", Options{Triangles: 10, Seed: 5, CallBudget: 120, SeedSearch: true}},
	}
	for _, v := range variants {
		for _, parallelism := range []int{1, 8} {
			name := fmt.Sprintf("%s/p%d", v.name, parallelism)
			opts := v.opts
			opts.Parallelism = parallelism

			indexed := opts
			if parallelism == 8 {
				indexed.Retrieval = shared
			}
			scan := opts
			scan.Retrieval = neighborhood.NewScanSources(b.Left, b.Right)

			got, err := New(b.Left, b.Right, indexed).ExplainBatch(textModel{}, pairs)
			if err != nil {
				t.Fatalf("%s: indexed: %v", name, err)
			}
			want, err := New(b.Left, b.Right, scan).ExplainBatch(textModel{}, pairs)
			if err != nil {
				t.Fatalf("%s: scan: %v", name, err)
			}
			for i := range pairs {
				gj, err := json.Marshal(got[i])
				if err != nil {
					t.Fatal(err)
				}
				wj, err := json.Marshal(want[i])
				if err != nil {
					t.Fatal(err)
				}
				if string(gj) != string(wj) {
					t.Fatalf("%s: pair %s: indexed result differs from scan result\nindexed: %s\nscan:    %s",
						name, pairs[i].Key(), gj, wj)
				}
			}
			if v.name == "call-budget" {
				// The budget must really have truncated, or the variant
				// proves nothing.
				truncated := false
				for _, r := range got {
					truncated = truncated || r.Diag.Truncated
				}
				if !truncated {
					t.Fatalf("%s: CallBudget %d truncated nothing; the truncation variant is vacuous",
						name, opts.CallBudget)
				}
			}
		}
	}
}

// TestIndexedScanEquivalenceDeepEqual complements the JSON comparison
// with reflect.DeepEqual over the in-memory Results (JSON would mask a
// divergence in an unexported or omitted field) on the single-explain
// path.
func TestIndexedScanEquivalenceDeepEqual(t *testing.T) {
	b, pairs := benchPairs(t, "BA", 3)
	for _, p := range pairs {
		indexed, err := New(b.Left, b.Right, Options{Triangles: 8, Seed: 3}).Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := New(b.Left, b.Right, Options{Triangles: 8, Seed: 3, Retrieval: neighborhood.NewScanSources(b.Left, b.Right)}).Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		assertDeepEqualResults(t, p.Key(), indexed, scan)
	}
}

// TestRetrievalTableMismatchRejected pins the injection guard: an index
// built over different tables must be rejected, not silently produce
// explanations from the wrong sources.
func TestRetrievalTableMismatchRejected(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 1)
	other, _ := benchPairs(t, "BA", 1)
	wrong := neighborhood.NewSources(other.Left, other.Right)
	_, err := New(b.Left, b.Right, Options{Triangles: 4, Seed: 1, Retrieval: wrong}).Explain(textModel{}, pairs[0])
	if err == nil {
		t.Fatal("expected an error for a Retrieval index over different tables")
	}
}

// TestAugmentBudgetDefaultPreserved pins the satellite refactor of the
// hard-coded attempt budget: the default AugmentBudget must reproduce
// the historical want*200 behaviour exactly, and a tiny budget must
// actually bound the augmented search's work.
func TestAugmentBudgetDefaultPreserved(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 3)
	for _, p := range pairs {
		def, err := New(b.Left, b.Right, Options{Triangles: 6, Seed: 5, ForceAugmentation: true}).Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := New(b.Left, b.Right, Options{Triangles: 6, Seed: 5, ForceAugmentation: true, AugmentBudget: 200}).Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		assertDeepEqualResults(t, p.Key(), def, explicit)

		tiny, err := New(b.Left, b.Right, Options{Triangles: 6, Seed: 5, ForceAugmentation: true, AugmentBudget: 1}).Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if tiny.Diag.TriangleSearchCalls > def.Diag.TriangleSearchCalls {
			t.Errorf("pair %s: AugmentBudget 1 spent %d search calls, default spent %d — the budget is not bounding work",
				p.Key(), tiny.Diag.TriangleSearchCalls, def.Diag.TriangleSearchCalls)
		}
	}
}

func assertDeepEqualResults(t *testing.T, key string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		t.Fatalf("pair %s: results differ\na: %s\nb: %s", key, aj, bj)
	}
}
