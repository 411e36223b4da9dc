package core

import (
	"reflect"
	"testing"

	"certa/internal/dataset"
	"certa/internal/record"
	"certa/internal/scorecache"
)

// repeatWorkload builds the batch a long-lived shared service sees:
// pivot-sharing pairs (one left record against several rights, whose
// candidate scans share the score store) plus re-requested pairs —
// explanations of content already explained, whose lattice questions
// repeat key-for-key and are answered from the store.
func repeatWorkload(t *testing.T, n, repeats int) (*dataset.Benchmark, []record.Pair) {
	t.Helper()
	b, pairs := benchPairs(t, "AB", n+1)
	pivot := pairs[0].Left
	out := make([]record.Pair, 0, n+repeats)
	for _, p := range pairs[1 : n+1] {
		out = append(out, record.Pair{Left: pivot, Right: p.Right})
	}
	out = append(out, out[:repeats]...)
	return b, out
}

// TestRepeatedPairsSharedServiceByteIdentical pins byte-identity when
// explanations answer each other's questions through a shared service:
// Results are identical at Parallelism 1 and 8, and each matches a
// sequential run with a private cache per explanation.
func TestRepeatedPairsSharedServiceByteIdentical(t *testing.T) {
	b, expl := repeatWorkload(t, 6, 3)

	run := func(par int) []*Result {
		svc := scorecache.NewService(textModel{}, scorecache.ServiceOptions{Parallelism: par})
		e := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5, Parallelism: par, Shared: svc})
		res, err := e.ExplainBatch(textModel{}, expl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	shared := run(1)
	if !reflect.DeepEqual(shared, run(8)) {
		t.Fatal("shared-service results differ between Parallelism 1 and 8")
	}

	// Gold standard: a sequential run with a private cache per
	// explanation (no sharing, no reuse possible).
	seq := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5})
	for i, p := range expl {
		want, err := seq.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared[i], want) {
			t.Fatalf("pair %d (%s): shared-service result differs from private sequential run", i, p.Key())
		}
	}
}
