package core

import (
	"reflect"
	"testing"

	"certa/internal/lattice"
)

// TestLatticePruneDeterministic is the pruned mode's determinism gate:
// with a PrunePolicy enabled, ExplainBatch must produce byte-identical
// Results at Parallelism 1 and 8 and against a sequential
// private-cache-per-explanation run — pruning decisions read only each
// lattice's own oracle answers, never scheduling or shared-cache state —
// and the skipped work must be reported through Diagnostics.
func TestLatticePruneDeterministic(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 6)
	prune := lattice.PrunePolicy{Threshold: 0.3, MinLevels: 1}

	run := func(par int) []*Result {
		e := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5, Parallelism: par, LatticePrune: prune})
		res, err := e.ExplainBatch(textModel{}, pairs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	p1 := run(1)
	p8 := run(8)
	if !reflect.DeepEqual(p1, p8) {
		t.Fatal("pruned results differ between Parallelism 1 and 8")
	}

	seq := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5, LatticePrune: prune})
	for i, p := range pairs {
		want, err := seq.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1[i], want) {
			t.Fatalf("pair %d (%s): batched pruned result differs from sequential run", i, p.Key())
		}
	}

	// The policy must actually have cut something, or the test is vacuous.
	pruned := 0
	for _, r := range p1 {
		pruned += r.Diag.PrunedQueries
		if r.Diag.PrunedQueries > 0 && r.Diag.PruneLevels == 0 {
			t.Fatal("PrunedQueries reported without PruneLevels")
		}
	}
	if pruned == 0 {
		t.Fatalf("threshold %v pruned nothing on this workload; the determinism check proved nothing", prune.Threshold)
	}
}

// TestLatticePruneSavesQueries checks the estimator contract: a pruned
// run must ask strictly fewer lattice questions than the exact run on a
// workload where pruning fires, and the saved work must be visible in
// the diagnostics ledger (Performed + Pruned never exceeds the
// exhaustive count).
func TestLatticePruneSavesQueries(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 4)
	exact := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5})
	pruned := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5,
		LatticePrune: lattice.PrunePolicy{Threshold: 0.3, MinLevels: 1}})

	savedSomewhere := false
	for _, p := range pairs {
		er, err := exact.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := pruned.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Diag.LatticeQueries > er.Diag.LatticeQueries {
			t.Fatalf("pair %s: pruned run asked more questions (%d) than exact (%d)",
				p.Key(), pr.Diag.LatticeQueries, er.Diag.LatticeQueries)
		}
		if pr.Diag.LatticeQueries < er.Diag.LatticeQueries {
			savedSomewhere = true
			if pr.Diag.PrunedQueries == 0 {
				t.Fatalf("pair %s: questions saved but PrunedQueries is 0", p.Key())
			}
		}
		if pr.Diag.ExpectedPredictions != er.Diag.ExpectedPredictions {
			t.Fatalf("pair %s: pruning changed the exhaustive baseline (%d vs %d)",
				p.Key(), pr.Diag.ExpectedPredictions, er.Diag.ExpectedPredictions)
		}
	}
	if !savedSomewhere {
		t.Fatal("pruning saved no lattice questions on any pair; thresholds need retuning")
	}
}

// TestLatticePruneZeroPolicyIsDefault pins the off switch: the zero
// PrunePolicy must leave every Result byte-identical to an Options
// struct that never mentions pruning.
func TestLatticePruneZeroPolicyIsDefault(t *testing.T) {
	b, pairs := benchPairs(t, "BA", 3)
	plain := New(b.Left, b.Right, Options{Triangles: 8, Seed: 3})
	zeroed := New(b.Left, b.Right, Options{Triangles: 8, Seed: 3, LatticePrune: lattice.PrunePolicy{}})
	for _, p := range pairs {
		a, err := plain.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		z, err := zeroed.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		assertDeepEqualResults(t, p.Key(), a, z)
		if a.Diag.PrunedQueries != 0 || a.Diag.PruneLevels != 0 {
			t.Fatalf("pair %s: default run reported pruning diagnostics %d/%d",
				p.Key(), a.Diag.PrunedQueries, a.Diag.PruneLevels)
		}
	}
}
