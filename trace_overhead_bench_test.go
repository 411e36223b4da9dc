package certa_test

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"certa"
	"certa/internal/memo"
	"certa/internal/telemetry"
)

// traceBenchFixture is the AB blocked-cluster workload (120/60 records,
// DeepMatcher seed 7, the k=4 cluster around the first test pair) shared
// by the traced/plain benchmark pair, the trace-overhead gate and the
// pruned-mode quality gate. The benchmark pair measures span-recording
// cost at steady state; compare the two ns/op figures directly:
//
//	go test -run '^$' -bench 'BenchmarkExplainPlain|BenchmarkExplainTraced' -count 5 .
type traceBenchFixture struct {
	bench *certa.Benchmark
	model *certa.Matcher
	pairs []certa.Pair
	idx   *certa.CandidateIndex
	svc   *certa.ScoringService
}

var traceBenchFx *traceBenchFixture

func loadTraceBenchFixture(tb testing.TB) *traceBenchFixture {
	if traceBenchFx != nil {
		return traceBenchFx
	}
	bench, err := certa.GenerateBenchmark("AB", certa.BenchmarkOptions{Seed: 7, MaxRecords: 120, MaxMatches: 60})
	if err != nil {
		tb.Fatal(err)
	}
	model, err := certa.TrainMatcher(certa.DeepMatcher, bench, certa.MatcherConfig{Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	pairs, err := certa.BlockedClusterPairs(bench.Left, bench.Right, bench.Test[0].Pair, 4)
	if err != nil {
		tb.Fatal(err)
	}
	traceBenchFx = &traceBenchFixture{
		bench: bench,
		model: model,
		pairs: pairs,
		idx:   certa.NewCandidateIndex(bench.Left, bench.Right),
		svc:   certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: 4}),
	}
	return traceBenchFx
}

func benchExplainTrace(b *testing.B, traced bool) {
	f := loadTraceBenchFixture(b)
	opts := certa.Options{Triangles: 100, Seed: 7, Parallelism: 4, Shared: f.svc, Retrieval: f.idx}
	// One warmup sweep so the shared service is equally hot for both
	// modes regardless of benchmark execution order.
	for i := range f.pairs {
		if _, err := certa.ExplainBatchContext(context.Background(), f.model, f.bench.Left, f.bench.Right, f.pairs[i:i+1], opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		if traced {
			ctx = telemetry.WithTrace(ctx, telemetry.New())
		}
		j := i % len(f.pairs)
		if _, err := certa.ExplainBatchContext(ctx, f.model, f.bench.Left, f.bench.Right, f.pairs[j:j+1], opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplainPlain(b *testing.B)  { benchExplainTrace(b, false) }
func BenchmarkExplainTraced(b *testing.B) { benchExplainTrace(b, true) }

// BenchmarkExplainCold profiles the cold path BenchmarkExplainPlain's
// warm service never reaches, in the benchmark's batch-cold call shape:
// each iteration explains 8 fixture pairs in one ExplainBatchContext on
// a fresh scoring service at Parallelism 1, so every model call, store
// insertion and triangle-scan miss is paid, and the store grows across
// a batch's explanations as in an offline run over a new cache. A
// one-pair iteration never grows the store past one explanation's keys
// and hides what that growth costs.
func BenchmarkExplainCold(b *testing.B) {
	f := loadTraceBenchFixture(b)
	batch := f.pairs[:min(8, len(f.pairs))]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := certa.NewScoringService(f.model, certa.ScoringServiceOptions{Parallelism: 1})
		opts := certa.Options{Triangles: 100, Seed: 7, Parallelism: 1, Shared: svc, Retrieval: f.idx}
		if _, err := certa.ExplainBatchContext(context.Background(), f.model, f.bench.Left, f.bench.Right, batch, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "pairs/op")
}

// BenchmarkExplainNeverSeen profiles what BenchmarkExplainCold's
// long-lived model hides: featurizing value pairs the matcher has never
// seen. Each iteration restores the fixture model from its serialized
// bytes outside the timer, so its text, token and block memos start
// empty, then explains BenchmarkExplainCold's 8-pair batch on a fresh
// service at Parallelism 1. Every attribute block is computed from
// scratch, as in a deployment's first pass over new records.
func BenchmarkExplainNeverSeen(b *testing.B) {
	f := loadTraceBenchFixture(b)
	batch := f.pairs[:min(8, len(f.pairs))]
	state, err := f.model.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		model := new(certa.Matcher)
		if err := model.UnmarshalBinary(state); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		svc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: 1})
		opts := certa.Options{Triangles: 100, Seed: 7, Parallelism: 1, Shared: svc, Retrieval: f.idx}
		if _, err := certa.ExplainBatchContext(context.Background(), model, f.bench.Left, f.bench.Right, batch, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "pairs/op")
}

// TestWarmReexplainAllocs bounds the allocations of one warm
// re-explanation on the fixture (a shared service already holding every
// score, Parallelism 1), where the triangle scan and the lattice are
// answered by the store: candidates and lattice questions are keyed
// score lookups that build no records, a chunk's keys share one string,
// token-drop variants are ids the service derived on an earlier
// request, and the view's key set, each batch's scratch, the support
// scans' chunk buffers and the shuffles' generators come from pools.
// Before the scan keyed candidates first, this path allocated 33,161
// objects; before variant ids, chunk keys and pooled key sets, 6,255
// objects and about 991,500 bytes; before pooled batch scratch, scan
// buffers and generators, about 2,170 objects and 570,000 bytes.
func TestWarmReexplainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts at random; alloc counts are unreliable")
	}
	f := loadTraceBenchFixture(t)
	svc := certa.NewScoringService(f.model, certa.ScoringServiceOptions{Parallelism: 1})
	opts := certa.Options{Triangles: 100, Seed: 7, Parallelism: 1, Shared: svc, Retrieval: f.idx}
	explain := func() {
		if _, err := certa.ExplainBatchContext(context.Background(), f.model, f.bench.Left, f.bench.Right, f.pairs[:1], opts); err != nil {
			t.Fatal(err)
		}
	}
	explain() // warm the service
	const runs, objBound, byteBound = 10, 2000, 350000
	got := testing.AllocsPerRun(runs, explain)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		explain()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations and %d bytes per warm re-explanation (bounds %d and %d)", got, bytes, objBound, byteBound)
	if got > objBound {
		t.Errorf("warm re-explanation allocates %.0f objects, want <= %d", got, objBound)
	}
	if bytes > byteBound {
		t.Errorf("warm re-explanation allocates %d bytes, want <= %d", bytes, byteBound)
	}
}

// TestEmbeddingStatsIndependentOfParallelism explains the fixture's
// pairs with a fresh matcher at Parallelism 1 and twice at Parallelism
// 4, where the engine cuts scoring batches into per-worker shards
// whose rows depend on timing. The matcher's batch pass reuses the
// previous row's values, and the embedding memo must count a reused
// value as the lookup and hit it stands for, so all three runs read
// the same EmbeddingStats.
func TestEmbeddingStatsIndependentOfParallelism(t *testing.T) {
	f := loadTraceBenchFixture(t)
	state, err := f.model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	run := func(par int) memo.Stats {
		model := new(certa.Matcher)
		if err := model.UnmarshalBinary(state); err != nil {
			t.Fatal(err)
		}
		svc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: par})
		opts := certa.Options{Triangles: 100, Seed: 7, Parallelism: par, Shared: svc, Retrieval: f.idx}
		if _, err := certa.ExplainBatchContext(context.Background(), model, f.bench.Left, f.bench.Right, f.pairs, opts); err != nil {
			t.Fatal(err)
		}
		return model.EmbeddingStats()
	}
	p1 := run(1)
	if p1.Lookups == 0 || p1.Hits == 0 {
		t.Fatalf("P1 embedding stats %+v: no lookups or hits to compare", p1)
	}
	for i := 0; i < 2; i++ {
		if p4 := run(4); p4 != p1 {
			t.Fatalf("P4 run %d embedding stats %+v, P1 %+v", i+1, p4, p1)
		}
	}
	t.Logf("embedding stats at P1 and P4: %+v", p1)
}

// TestTraceOverheadUnderTwoPercent holds per-explanation tracing under
// 2% of the untraced pipeline on the fixture. The difference of two
// tens-of-ms wall times swings by several percent on a loaded machine,
// so the cost is decomposed instead: the spans one explanation records
// (counted from a traced sweep's real span trees, plus the root) times
// the cost of one full span cycle, over the best untraced time per
// explanation. Every span is priced at the context-deriving StartSpan
// rate with a worst-case single-parent append, so the estimate errs
// high; what it omits (trace lock contention, GC pressure from span
// allocations) is orders of magnitude below the gate.
func TestTraceOverheadUnderTwoPercent(t *testing.T) {
	f := loadTraceBenchFixture(t)
	// sweep explains every fixture pair once, one pair per call as a
	// server would, on a fresh scoring service. Traced sweeps give each
	// explanation its own Trace and return the spans recorded.
	sweep := func(traced bool) (time.Duration, int64) {
		svc := certa.NewScoringService(f.model, certa.ScoringServiceOptions{Parallelism: 4})
		opts := certa.Options{Triangles: 100, Seed: 7, Parallelism: 4, Shared: svc, Retrieval: f.idx}
		var spans int64
		start := time.Now()
		for i := range f.pairs {
			ctx := context.Background()
			var tr *telemetry.Trace
			if traced {
				tr = telemetry.New()
				ctx = telemetry.WithTrace(ctx, tr)
			}
			if _, err := certa.ExplainBatchContext(ctx, f.model, f.bench.Left, f.bench.Right, f.pairs[i:i+1], opts); err != nil {
				t.Fatal(err)
			}
			for _, st := range tr.Stages() {
				spans += st.Count
			}
		}
		return time.Since(start), spans
	}
	n := float64(len(f.pairs))
	_, spans := sweep(true)
	if spans == 0 {
		t.Fatal("traced sweep recorded no spans; the overhead estimate is vacuous")
	}
	plainNS, unitNS := math.Inf(1), math.Inf(1)
	for r := 0; r < 3; r++ {
		wall, _ := sweep(false)
		plainNS = math.Min(plainNS, float64(wall)/n)
		unitNS = math.Min(unitNS, spanCycleNS())
	}
	spansPerExpl := float64(spans) / n
	pct := 100 * (spansPerExpl + 1) * unitNS / plainNS
	t.Logf("%.1f spans/explanation x %.0f ns/span over %.0f ns/explanation untraced: %.3f%% trace overhead",
		spansPerExpl, unitNS, plainNS, pct)
	if pct >= 2 {
		t.Errorf("trace overhead %.3f%% of the untraced pipeline, want < 2%%", pct)
	}
}

// spanCycleNS times one full span cycle — context-deriving StartSpan,
// AddItems, End — under a live trace, in ns per cycle. 200k cycles take
// a few tens of ms, so the loop averages away scheduler noise.
func spanCycleNS() float64 {
	ctx := telemetry.WithTrace(context.Background(), telemetry.New())
	parent, pctx := telemetry.StartSpan(ctx, "unitbench")
	defer parent.End()
	const cycles = 200_000
	start := time.Now()
	for j := 0; j < cycles; j++ {
		sp, _ := telemetry.StartSpan(pctx, "unit")
		sp.AddItems(1)
		sp.End()
	}
	return float64(time.Since(start)) / cycles
}
