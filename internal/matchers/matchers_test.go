package matchers

import (
	"sync"
	"sync/atomic"
	"testing"

	"certa/internal/dataset"
	"certa/internal/record"
)

// trainBench caches one small benchmark + models across tests.
var (
	benchOnce sync.Once
	benchAB   *dataset.Benchmark
	modelsAB  map[Kind]*Model
)

func testBenchmark(t testing.TB) (*dataset.Benchmark, map[Kind]*Model) {
	benchOnce.Do(func() {
		benchAB = dataset.MustGenerate("AB", dataset.Options{Seed: 42, MaxRecords: 120, MaxMatches: 60})
		var err error
		modelsAB, err = TrainAll(benchAB, Config{Seed: 1})
		if err != nil {
			panic(err)
		}
	})
	return benchAB, modelsAB
}

func TestTrainAllReachUsefulF1(t *testing.T) {
	b, models := testBenchmark(t)
	for kind, m := range models {
		f1 := F1(m, b.Test)
		t.Logf("%s F1 on AB test = %.3f", kind, f1)
		if f1 < 0.6 {
			t.Errorf("%s F1 = %.3f, want >= 0.6 (models must be usable for explanation studies)", kind, f1)
		}
	}
}

func TestDittoIsStrongest(t *testing.T) {
	b, models := testBenchmark(t)
	ditto := F1(models[Ditto], b.Test)
	deeper := F1(models[DeepER], b.Test)
	// The paper's ordering: Ditto is the strongest system. Allow a small
	// tolerance since these are small synthetic benchmarks.
	if ditto+0.05 < deeper {
		t.Errorf("Ditto F1 %.3f should not trail DeepER %.3f by more than 0.05", ditto, deeper)
	}
}

func TestScoreRangeAndDeterminism(t *testing.T) {
	b, models := testBenchmark(t)
	for kind, m := range models {
		for _, p := range b.Test[:10] {
			s1 := m.Score(p.Pair)
			s2 := m.Score(p.Pair)
			if s1 != s2 {
				t.Fatalf("%s: Score not deterministic", kind)
			}
			if s1 < 0 || s1 > 1 {
				t.Fatalf("%s: score %v out of [0,1]", kind, s1)
			}
		}
	}
}

// TestScoreConcurrentSafe drives the matcher-lifetime caches every
// scoring shard of a service shares — the DeepMatcher attribute-block
// memo, the embedding memo and the token memo — from concurrent
// ScoreBatch and Score calls, for every trained kind. Each model under
// test is a serialization round trip of a trained one, so its caches
// start empty and the test pairs are misses that some goroutines fill
// while others read; every score must still match the trained model's.
func TestScoreConcurrentSafe(t *testing.T) {
	b, models := testBenchmark(t)
	pairs := make([]record.Pair, len(b.Test))
	for i, lp := range b.Test {
		pairs[i] = lp.Pair
	}
	for _, kind := range Kinds() {
		want := models[kind].ScoreBatch(pairs)
		data, err := models[kind].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		m := new(Model)
		if err := m.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var mismatches atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, got := range m.ScoreBatch(pairs) {
					if got != want[i] {
						mismatches.Add(1)
					}
				}
				for i := g; i < len(pairs); i += 8 {
					if m.Score(pairs[i]) != want[i] {
						mismatches.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if n := mismatches.Load(); n > 0 {
			t.Errorf("%s: concurrent scoring produced %d mismatching results", kind, n)
		}
	}
}

func TestScoreSensitiveToAttributeCopy(t *testing.T) {
	// The core premise of CERTA's perturbations: copying attribute
	// values from a matching record into a non-matching one must move
	// the score toward match. Verify the mechanism works on our models.
	b, models := testBenchmark(t)
	for kind, m := range models {
		moved := 0
		tested := 0
		for _, p := range b.Test {
			if !p.Match {
				continue
			}
			if m.Score(p.Pair) <= 0.5 {
				continue // need a predicted match
			}
			// Build a non-match by pairing a random left record, then
			// copy all left attributes from the matching left record.
			other := b.Left.Records[0]
			if other.ID == p.Left.ID {
				other = b.Left.Records[1]
			}
			nonMatch := record.Pair{Left: other, Right: p.Right}
			base := m.Score(nonMatch)
			perturbed := nonMatch
			for _, a := range p.Left.Schema.Attrs {
				perturbed = perturbed.WithRecord(record.Left,
					perturbed.Left.WithValue(a, p.Left.Value(a)))
			}
			after := m.Score(perturbed)
			tested++
			if after > base {
				moved++
			}
			if tested >= 15 {
				break
			}
		}
		if tested == 0 {
			t.Fatalf("%s: no testable pairs", kind)
		}
		if moved*2 < tested {
			t.Errorf("%s: copying matching values raised score on only %d/%d pairs", kind, moved, tested)
		}
	}
}

func TestTrainSVMBaseline(t *testing.T) {
	b, _ := testBenchmark(t)
	m, err := Train(SVM, b, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f1 := F1(m, b.Test); f1 < 0.5 {
		t.Errorf("SVM baseline F1 = %.3f, want >= 0.5", f1)
	}
}

// scoreFunc is a test model: a plain score function as an explain.Model.
type scoreFunc func(record.Pair) float64

func (scoreFunc) Name() string                  { return "func" }
func (f scoreFunc) Score(p record.Pair) float64 { return f(p) }

// TestScoreFuncAdapter: F1 and Accuracy take any explain.Model and
// apply the paper's threshold, score > 0.5 meaning Match.
func TestScoreFuncAdapter(t *testing.T) {
	b, _ := testBenchmark(t)
	for _, c := range []struct {
		score float64
		match bool
	}{{0.7, true}, {0.5, false}, {0.3, false}} {
		m := scoreFunc(func(record.Pair) float64 { return c.score })
		pair := []record.LabeledPair{{Pair: b.Test[0].Pair, Match: true}}
		if got, want := Accuracy(m, pair) == 1, c.match; got != want {
			t.Errorf("score %v: counted as a match %v, want %v", c.score, got, want)
		}
	}
}

func TestAccuracyAndF1Edges(t *testing.T) {
	never := scoreFunc(func(record.Pair) float64 { return 0 })
	b, _ := testBenchmark(t)
	if F1(never, b.Test) != 0 {
		t.Error("F1 of never-matcher should be 0")
	}
	if Accuracy(never, nil) != 0 {
		t.Error("Accuracy on empty set should be 0")
	}
	always := scoreFunc(func(record.Pair) float64 { return 1 })
	f1 := F1(always, b.Test)
	if f1 <= 0 || f1 > 1 {
		t.Errorf("F1 of always-matcher = %v", f1)
	}
}

func TestDittoRobustToDirtyData(t *testing.T) {
	// On a dirty benchmark, Ditto's alignment-free features should keep
	// it competitive; DeepMatcher's strict attribute alignment suffers.
	dirty := dataset.MustGenerate("DDA", dataset.Options{Seed: 9, MaxRecords: 120, MaxMatches: 60})
	ditto := MustTrain(Ditto, dirty, Config{Seed: 2})
	dm := MustTrain(DeepMatcher, dirty, Config{Seed: 2})
	f1Ditto, f1DM := F1(ditto, dirty.Test), F1(dm, dirty.Test)
	t.Logf("dirty DDA: Ditto %.3f, DeepMatcher %.3f", f1Ditto, f1DM)
	if f1Ditto < 0.5 {
		t.Errorf("Ditto on dirty data F1 = %.3f, want >= 0.5", f1Ditto)
	}
}

func TestUnknownKind(t *testing.T) {
	b, _ := testBenchmark(t)
	if _, err := Train(Kind("nope"), b, Config{}); err == nil {
		t.Error("unknown kind should error")
	}
}

func BenchmarkScoreDitto(b *testing.B) {
	bench, models := testBenchmark(b)
	m := models[Ditto]
	p := bench.Test[0].Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(p)
	}
}

func BenchmarkTrainDeepMatcher(b *testing.B) {
	bench, _ := testBenchmark(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(DeepMatcher, bench, Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
