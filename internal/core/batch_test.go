package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"certa/internal/dataset"
	"certa/internal/record"
	"certa/internal/strutil"
	"certa/internal/workpool"
)

// textModel is a deterministic functional classifier over the pair's
// full text, cheap enough to run across every benchmark code.
type textModel struct{}

func (textModel) Name() string { return "text-jaccard" }
func (textModel) Score(p record.Pair) float64 {
	if strutil.Jaccard(p.Left.Text(), p.Right.Text()) > 0.4 {
		return 0.9
	}
	return 0.1
}

func benchPairs(t *testing.T, code string, n int) (*dataset.Benchmark, []record.Pair) {
	t.Helper()
	b, err := dataset.Generate(code, dataset.Options{Seed: 11, MaxRecords: 120, MaxMatches: 60})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []record.Pair
	for _, lp := range b.Test {
		pairs = append(pairs, lp.Pair)
		if len(pairs) == n {
			break
		}
	}
	if len(pairs) < n {
		t.Fatalf("benchmark %s has only %d test pairs, want %d", code, len(pairs), n)
	}
	return b, pairs
}

// TestExplainBatchMatchesSequentialExplain is the batch API's core
// contract: >=32 pairs at Parallelism 8 must produce results —
// diagnostics included — byte-identical to a sequential Explain loop.
func TestExplainBatchMatchesSequentialExplain(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 32)

	seq := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5})
	var want []*Result
	for _, p := range pairs {
		res, err := seq.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	par := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5, Parallelism: 8})
	got, err := par.ExplainBatch(textModel{}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("pair %d (%s): batched result differs from sequential\ngot:  %+v\nwant: %+v",
				i, pairs[i].Key(), got[i].Diag, want[i].Diag)
		}
	}
}

// TestExplainByteIdenticalAcrossParallelism pins the determinism
// guarantee of the worker-pool pipeline at the single-explanation level.
func TestExplainByteIdenticalAcrossParallelism(t *testing.T) {
	b, pairs := benchPairs(t, "BA", 4)
	for _, p := range pairs {
		one, err := New(b.Left, b.Right, Options{Triangles: 12, Seed: 3, Parallelism: 1}).Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		eight, err := New(b.Left, b.Right, Options{Triangles: 12, Seed: 3, Parallelism: 8}).Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, eight) {
			t.Fatalf("pair %s: results differ between Parallelism 1 and 8", p.Key())
		}
	}
}

// TestExplainBatchPropagatesError checks the lowest-index failure
// surfaces deterministically.
func TestExplainBatchPropagatesError(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 3)
	pairs[1] = record.Pair{} // nil records
	e := New(b.Left, b.Right, Options{Triangles: 4, Seed: 1, Parallelism: 4})
	if _, err := e.ExplainBatch(textModel{}, pairs); err == nil {
		t.Fatal("expected error for nil pair")
	}
}

// panicModel is a model whose every scoring batch panics.
type panicModel struct{ textModel }

func (panicModel) ScoreBatch([]record.Pair) []float64 { panic("injected model bug") }

// TestExplainBatchContainsModelPanic: a panicking model fails the batch
// with the panic as an error at any Parallelism, instead of crashing the
// caller's process from a worker goroutine.
func TestExplainBatchContainsModelPanic(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 3)
	for _, parallelism := range []int{1, 4} {
		e := New(b.Left, b.Right, Options{Triangles: 4, Seed: 1, Parallelism: parallelism})
		_, err := e.ExplainBatch(panicModel{}, pairs)
		var pe *workpool.PanicError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "panicked: injected model bug") {
			t.Fatalf("Parallelism %d: err = %v, want the model's panic as a *workpool.PanicError", parallelism, err)
		}
	}
}

// TestCachedMatchesUncachedAcrossAllCodes is the score-cache property
// test: on every one of the twelve benchmark codes, the memoized
// pipeline must produce exactly the explanation the uncached (seed
// scoring path) pipeline produces, while reaching the model no more
// often.
func TestCachedMatchesUncachedAcrossAllCodes(t *testing.T) {
	for _, code := range dataset.Codes() {
		b, pairs := benchPairs(t, code, 2)
		for _, p := range pairs {
			cached, err := New(b.Left, b.Right, Options{Triangles: 8, Seed: 21}).Explain(textModel{}, p)
			if err != nil {
				t.Fatalf("%s: %v", code, err)
			}
			raw, err := New(b.Left, b.Right, Options{Triangles: 8, Seed: 21, DisableCache: true}).Explain(textModel{}, p)
			if err != nil {
				t.Fatalf("%s: %v", code, err)
			}

			if !reflect.DeepEqual(cached.Saliency.Scores, raw.Saliency.Scores) {
				t.Errorf("%s %s: saliency differs with cache", code, p.Key())
			}
			if !reflect.DeepEqual(cached.Counterfactuals, raw.Counterfactuals) {
				t.Errorf("%s %s: counterfactuals differ with cache", code, p.Key())
			}
			if cached.BestSet.Key() != raw.BestSet.Key() || cached.BestSufficiency != raw.BestSufficiency {
				t.Errorf("%s %s: A★ differs with cache", code, p.Key())
			}
			if !reflect.DeepEqual(cached.Sufficiency, raw.Sufficiency) {
				t.Errorf("%s %s: sufficiency table differs with cache", code, p.Key())
			}

			// The oracle workload is identical; only who answers differs.
			if cached.Diag.LatticeQueries != raw.Diag.LatticeQueries {
				t.Errorf("%s %s: lattice queries %d (cached) vs %d (raw)",
					code, p.Key(), cached.Diag.LatticeQueries, raw.Diag.LatticeQueries)
			}
			if cached.Diag.LatticePredictions > cached.Diag.LatticeQueries {
				t.Errorf("%s %s: unique lattice calls %d exceed queries %d",
					code, p.Key(), cached.Diag.LatticePredictions, cached.Diag.LatticeQueries)
			}
			// LatticePredictions counts unique model calls: with the
			// cache disabled every query is one.
			if raw.Diag.LatticePredictions != raw.Diag.LatticeQueries {
				t.Errorf("%s %s: uncached run must call the model per query: %d != %d",
					code, p.Key(), raw.Diag.LatticePredictions, raw.Diag.LatticeQueries)
			}
			if cached.Diag.ModelCalls > raw.Diag.ModelCalls {
				t.Errorf("%s %s: cache increased model calls: %d > %d",
					code, p.Key(), cached.Diag.ModelCalls, raw.Diag.ModelCalls)
			}
			if cached.Diag.CacheLookups != cached.Diag.CacheHits+cached.Diag.ModelCalls {
				t.Errorf("%s %s: lookup accounting broken: %d != %d + %d",
					code, p.Key(), cached.Diag.CacheLookups, cached.Diag.CacheHits, cached.Diag.ModelCalls)
			}
		}
	}
}
