package certa_test

// One benchmark per table/figure of the paper's evaluation (§5), plus
// ablation and micro benchmarks. Each experiment benchmark runs the eval
// harness in its Quick profile so `go test -bench=.` finishes in
// minutes; `cmd/certa-bench` regenerates the same artifacts at full
// scale.

import (
	"io"
	"sync"
	"testing"

	"certa"
	"certa/internal/core"
	"certa/internal/dataset"
	"certa/internal/eval"
	"certa/internal/matchers"
)

// benchHarness is shared across experiment benchmarks so dataset
// generation and model training are paid once.
var (
	bhOnce sync.Once
	bh     *eval.Harness
)

func benchEvalHarness() *eval.Harness {
	bhOnce.Do(func() {
		bh = eval.NewHarness(eval.Config{Seed: 7, Quick: true})
	})
	return bh
}

func runExperiment(b *testing.B, id string) {
	h := benchEvalHarness()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := h.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1DatasetGen regenerates Table 1 (dataset statistics).
func BenchmarkTable1DatasetGen(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFigure2Predictions regenerates Figure 2 (system predictions
// on the Figure 1 pairs).
func BenchmarkFigure2Predictions(b *testing.B) { runExperiment(b, "figure2") }

// BenchmarkFigure3Saliency regenerates Figures 3-4 (wrong-prediction
// saliency comparison and the faithfulness probe).
func BenchmarkFigure3Saliency(b *testing.B) { runExperiment(b, "figure3") }

// BenchmarkFigure5Counterfactual regenerates Figure 5 (CERTA vs DiCE
// counterfactuals).
func BenchmarkFigure5Counterfactual(b *testing.B) { runExperiment(b, "figure5") }

// BenchmarkTable2Faithfulness regenerates Table 2.
func BenchmarkTable2Faithfulness(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3Confidence regenerates Table 3.
func BenchmarkTable3Confidence(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4Proximity regenerates Table 4.
func BenchmarkTable4Proximity(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5Sparsity regenerates Table 5.
func BenchmarkTable5Sparsity(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6Diversity regenerates Table 6.
func BenchmarkTable6Diversity(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkFigure10CFCount regenerates Figure 10 (average number of
// counterfactuals per method).
func BenchmarkFigure10CFCount(b *testing.B) { runExperiment(b, "figure10") }

// BenchmarkFigure11Triangles regenerates Figure 11 (the τ sweep).
func BenchmarkFigure11Triangles(b *testing.B) { runExperiment(b, "figure11") }

// BenchmarkTable7Monotonicity regenerates Table 7 (lattice savings vs
// error of the monotone-classifier assumption).
func BenchmarkTable7Monotonicity(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkTable8Augmentation regenerates Table 8 (natural triangles
// without augmentation).
func BenchmarkTable8Augmentation(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkTable9AugmentationEffect regenerates Tables 9-10 (metric
// deltas under forced augmentation).
func BenchmarkTable9AugmentationEffect(b *testing.B) { runExperiment(b, "table9") }

// BenchmarkFigure12CaseStudy regenerates Figure 12 (actual vs explained
// saliency on BA).
func BenchmarkFigure12CaseStudy(b *testing.B) { runExperiment(b, "figure12") }

// --- ablation benchmarks (DESIGN.md §5) --------------------------------

// benchCell builds one small trained cell outside the harness for the
// micro/ablation benchmarks.
type benchCell struct {
	bench *dataset.Benchmark
	model *matchers.Model
}

var (
	cellOnce sync.Once
	cellAB   benchCell
)

func abCell() benchCell {
	cellOnce.Do(func() {
		bench := dataset.MustGenerate("AB", dataset.Options{Seed: 9, MaxRecords: 120, MaxMatches: 60})
		model := matchers.MustTrain(matchers.DeepMatcher, bench, matchers.Config{Seed: 9})
		cellAB = benchCell{bench: bench, model: model}
	})
	return cellAB
}

// BenchmarkAblationMonotoneOn measures one CERTA explanation with the
// monotone-propagation optimization enabled (the default).
func BenchmarkAblationMonotoneOn(b *testing.B) {
	c := abCell()
	e := core.New(c.bench.Left, c.bench.Right, core.Options{Triangles: 20, Seed: 1})
	p := c.bench.Test[0].Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(c.model, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMonotoneOff measures the same explanation with exact
// lattice evaluation (every node tested), quantifying what Table 7's
// savings buy in wall-clock terms.
func BenchmarkAblationMonotoneOff(b *testing.B) {
	c := abCell()
	e := core.New(c.bench.Left, c.bench.Right, core.Options{Triangles: 20, Seed: 1, NoMonotone: true})
	p := c.bench.Test[0].Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(c.model, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTriangleBudget sweeps τ, the explanation's main cost
// knob (Figure 11's x-axis).
func BenchmarkAblationTriangleBudget(b *testing.B) {
	c := abCell()
	p := c.bench.Test[0].Pair
	for _, tau := range []int{10, 50, 100} {
		e := core.New(c.bench.Left, c.bench.Right, core.Options{Triangles: tau, Seed: 1})
		b.Run(sprintTau(tau), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Explain(c.model, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sprintTau(tau int) string {
	switch tau {
	case 10:
		return "tau=10"
	case 50:
		return "tau=50"
	default:
		return "tau=100"
	}
}

// BenchmarkAblationTriangleSides compares the paper's symmetric
// left+right triangle design against a left-only ablation at the same
// total budget.
func BenchmarkAblationTriangleSides(b *testing.B) {
	c := abCell()
	p := c.bench.Test[0].Pair
	for _, leftOnly := range []bool{false, true} {
		e := core.New(c.bench.Left, c.bench.Right, core.Options{
			Triangles: 20, Seed: 1, LeftTrianglesOnly: leftOnly,
		})
		name := "both-sides"
		if leftOnly {
			name = "left-only"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Explain(c.model, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelism measures the effect of exploring triangle
// lattices concurrently.
func BenchmarkAblationParallelism(b *testing.B) {
	c := abCell()
	p := c.bench.Test[0].Pair
	for _, par := range []int{1, 4} {
		e := core.New(c.bench.Left, c.bench.Right, core.Options{Triangles: 40, Seed: 1, Parallelism: par})
		name := "serial"
		if par > 1 {
			name = "parallel4"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Explain(c.model, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatcherScore measures raw model-call throughput, the unit
// cost every explainer multiplies.
func BenchmarkMatcherScore(b *testing.B) {
	c := abCell()
	p := c.bench.Test[0].Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.model.Score(p)
	}
}

// --- batched scoring pipeline benchmarks --------------------------------

// TestBatchedPipelineModelCallReduction is the acceptance gate of the
// batched scoring refactor: on the AB benchmark, the batched pipeline
// (score cache + guided support search) must reach the model at least
// 2x less often per explanation than the seed path — blind augmentation
// scan, point lookups, no memoization — did. Both runs explain the same
// pairs with the same τ and seed; the diagnostics expose the call
// counts.
func TestBatchedPipelineModelCallReduction(t *testing.T) {
	c := abCell()
	seedExp := certa.New(c.bench.Left, c.bench.Right, certa.Options{
		Triangles: 100, Seed: 1, DisableCache: true, SeedSearch: true,
	})
	newExp := certa.New(c.bench.Left, c.bench.Right, certa.Options{Triangles: 100, Seed: 1})
	var seedCalls, modelCalls int
	n := len(c.bench.Test)
	if n > 8 {
		n = 8
	}
	for _, lp := range c.bench.Test[:n] {
		seedRes, err := seedExp.Explain(c.model, lp.Pair)
		if err != nil {
			t.Fatal(err)
		}
		// SeedPathCalls of a SeedSearch+DisableCache run is exactly what
		// the sequential pre-refactor pipeline scored: the candidate scan
		// up to the last accepted support plus every lattice query.
		seedCalls += seedRes.Diag.SeedPathCalls

		newRes, err := newExp.Explain(c.model, lp.Pair)
		if err != nil {
			t.Fatal(err)
		}
		modelCalls += newRes.Diag.ModelCalls
	}
	t.Logf("AB: seed path %d calls, batched pipeline %d unique calls (%.2fx reduction) over %d explanations",
		seedCalls, modelCalls, float64(seedCalls)/float64(modelCalls), n)
	if modelCalls*2 > seedCalls {
		t.Errorf("batched pipeline made %d model calls; seed path made %d — want >=2x reduction",
			modelCalls, seedCalls)
	}
}

// TestSharedScorerCrossExplanationReduction is the acceptance gate of
// the shared scoring service: a batch of 16 AB explanations through one
// shared scorer must make strictly fewer total unique model calls than
// 16 private-cache explanations would. The per-explanation Diagnostics
// are private-cache-equivalent by construction (pinned by the core
// determinism tests), so one shared run yields both numbers: the sum of
// Diag.ModelCalls is the private cost, the service's Misses the shared
// cost.
func TestSharedScorerCrossExplanationReduction(t *testing.T) {
	c := abCell()
	// The 4x4 bipartite blocked cluster around the first test pair: the
	// serving-shaped workload whose pairs share pivot records.
	pairs, err := certa.BlockedClusterPairs(c.bench.Left, c.bench.Right, c.bench.Test[0].Pair, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) > 16 {
		pairs = pairs[:16]
	}
	svc := certa.NewScoringService(c.model, certa.ScoringServiceOptions{Parallelism: 2})
	results, err := certa.ExplainBatch(c.model, c.bench.Left, c.bench.Right, pairs, certa.Options{
		Triangles: 100, Seed: 1, Parallelism: 2, Shared: svc,
	})
	if err != nil {
		t.Fatal(err)
	}
	private := 0
	for _, res := range results {
		private += res.Diag.ModelCalls
	}
	shared := svc.Stats().Misses
	t.Logf("AB cluster: %d explanations, %d private-cache calls, %d shared unique calls (%.2fx cross-explanation reduction)",
		len(results), private, shared, float64(private)/float64(shared))
	if shared >= private {
		t.Errorf("shared scorer made %d unique model calls; private caches would make %d — want strictly fewer", shared, private)
	}
	if float64(private) < 1.5*float64(shared) {
		t.Errorf("cross-explanation reduction %.2fx below the 1.5x acceptance bar", float64(private)/float64(shared))
	}
}

// TestPrunedModeKeepsTopAttribution is pruned mode's quality gate: on
// the AB blocked-cluster fixture, explanations under Threshold 0.25 must
// keep the exact run's top-2 saliency attributes on at least 90% of the
// pairs. MinLevels 1 lets the cut fire at all: AB's 3-attribute lattices
// explore only levels 1..2, so the default MinLevels 2 never cuts.
// Pruned results are byte-identical at any Parallelism, so the agreement
// is a fixed property of the fixture, not a sample.
func TestPrunedModeKeepsTopAttribution(t *testing.T) {
	f := loadTraceBenchFixture(t)
	explain := func(prune certa.PrunePolicy) []*certa.Result {
		t.Helper()
		results, err := certa.ExplainBatch(f.model, f.bench.Left, f.bench.Right, f.pairs, certa.Options{
			Triangles: 100, Seed: 7, Parallelism: 4, Retrieval: f.idx, LatticePrune: prune,
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	exact := explain(certa.PrunePolicy{})
	pruned := explain(certa.PrunePolicy{Threshold: 0.25, MinLevels: 1})
	skipped := 0
	for _, res := range pruned {
		skipped += res.Diag.PrunedQueries
	}
	if skipped == 0 {
		t.Fatal("pruning skipped no lattice questions; the agreement check is vacuous")
	}
	s := eval.SummarizeAnytime(pruned, exact)
	t.Logf("AB cluster: %d pruned questions skipped over %d explanations, top-2 agreement %.4f, CF validity %.4f",
		skipped, len(pruned), s.Top2Agreement, s.CFValidity)
	if s.Top2Agreement < 0.9 {
		t.Errorf("pruned top-2 saliency agreement %.4f with the exact run, want >= 0.9", s.Top2Agreement)
	}
}

// BenchmarkExplainModelCalls reports the per-explanation model-call
// economics of the batched pipeline as benchmark metrics.
func BenchmarkExplainModelCalls(b *testing.B) {
	c := abCell()
	e := certa.New(c.bench.Left, c.bench.Right, certa.Options{Triangles: 100, Seed: 1})
	p := c.bench.Test[0].Pair
	b.ReportAllocs()
	b.ResetTimer()
	var seedCalls, modelCalls, hits, lookups float64
	for i := 0; i < b.N; i++ {
		res, err := e.Explain(c.model, p)
		if err != nil {
			b.Fatal(err)
		}
		seedCalls += float64(res.Diag.SeedPathCalls)
		modelCalls += float64(res.Diag.ModelCalls)
		hits += float64(res.Diag.CacheHits)
		lookups += float64(res.Diag.CacheLookups)
	}
	b.ReportMetric(modelCalls/float64(b.N), "modelcalls/explanation")
	b.ReportMetric(seedCalls/float64(b.N), "seedcalls/explanation")
	b.ReportMetric(hits/lookups, "cachehitrate")
}

// BenchmarkExplainBatch measures cross-pair concurrency through the
// public batch API at several worker counts.
func BenchmarkExplainBatch(b *testing.B) {
	c := abCell()
	pairs := make([]certa.Pair, 0, len(c.bench.Test))
	for _, lp := range c.bench.Test {
		pairs = append(pairs, lp.Pair)
	}
	for _, par := range []int{1, 4} {
		name := "serial"
		if par > 1 {
			name = "parallel4"
		}
		b.Run(name, func(b *testing.B) {
			e := certa.New(c.bench.Left, c.bench.Right, certa.Options{Triangles: 20, Seed: 1, Parallelism: par})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExplainBatch(c.model, pairs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(pairs)), "explanations/op")
		})
	}
}

// BenchmarkPublicAPIExplain measures one end-to-end explanation through
// the public facade.
func BenchmarkPublicAPIExplain(b *testing.B) {
	c := abCell()
	e := certa.New(c.bench.Left, c.bench.Right, certa.Options{Triangles: 20, Seed: 1})
	p := c.bench.Test[0].Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(c.model, p); err != nil {
			b.Fatal(err)
		}
	}
}
