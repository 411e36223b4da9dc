package scorecache

import (
	"sync"
	"testing"

	"certa/internal/record"
)

// countingModel counts true model invocations, distinguishing batch
// entry-point usage.
type countingModel struct {
	mu      sync.Mutex
	calls   int
	batches int
}

func (m *countingModel) Name() string { return "counting" }

func (m *countingModel) Score(p record.Pair) float64 {
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	return float64(len(p.Left.Value("a"))+len(p.Right.Value("a"))) / 100
}

func (m *countingModel) ScoreBatch(pairs []record.Pair) []float64 {
	m.mu.Lock()
	m.batches++
	m.mu.Unlock()
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = m.Score(p)
	}
	return out
}

var testSchema = record.MustSchema("S", "a", "b")

func pairOf(a, b string) record.Pair {
	l := record.MustNew("l", testSchema, a, b)
	r := record.MustNew("r", testSchema, a, b)
	return record.Pair{Left: l, Right: r}
}

func TestIdenticalPairsScoredOnce(t *testing.T) {
	m := &countingModel{}
	s := New(m, Options{})
	p := pairOf("x", "y")
	first := s.Score(p)
	for i := 0; i < 9; i++ {
		// Same content, different record IDs: still one model call.
		clone := record.Pair{
			Left:  record.MustNew("other", testSchema, "x", "y"),
			Right: record.MustNew("other2", testSchema, "x", "y"),
		}
		if got := s.Score(clone); got != first {
			t.Fatalf("cached score %v != %v", got, first)
		}
	}
	if m.calls != 1 {
		t.Fatalf("model invoked %d times for identical content, want 1", m.calls)
	}
	st := s.Stats()
	if st.Lookups != 10 || st.Hits != 9 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 10 lookups / 9 hits / 1 miss", st)
	}
}

func TestBatchDeduplicatesWithinBatch(t *testing.T) {
	m := &countingModel{}
	s := New(m, Options{})
	batch := []record.Pair{
		pairOf("x", "y"), pairOf("u", "v"), pairOf("x", "y"), pairOf("u", "v"), pairOf("x", "y"),
	}
	scores := s.ScoreBatch(batch)
	if m.calls != 2 {
		t.Fatalf("model invoked %d times, want 2 unique", m.calls)
	}
	if scores[0] != scores[2] || scores[0] != scores[4] || scores[1] != scores[3] {
		t.Fatal("duplicate slots must receive the shared score")
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("batches = %d, want 1 logical batch", st.Batches)
	}
}

func TestDisabledCacheCallsModelEveryTime(t *testing.T) {
	m := &countingModel{}
	s := New(m, Options{Disabled: true})
	p := pairOf("x", "y")
	s.ScoreBatch([]record.Pair{p, p, p})
	s.Score(p)
	if m.calls != 4 {
		t.Fatalf("disabled cache made %d model calls, want 4", m.calls)
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 0 hits / 4 misses", st)
	}
}

func TestParallelShardsMatchSequential(t *testing.T) {
	mkBatch := func() []record.Pair {
		out := make([]record.Pair, 0, 64)
		vals := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g", "hh"}
		for _, a := range vals {
			for _, b := range vals {
				out = append(out, pairOf(a, b))
			}
		}
		return out
	}
	seq := New(&countingModel{}, Options{Parallelism: 1}).ScoreBatch(mkBatch())
	par := New(&countingModel{}, Options{Parallelism: 8}).ScoreBatch(mkBatch())
	if len(seq) != len(par) {
		t.Fatal("length mismatch")
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("slot %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
}

func TestStatsDeterministicAcrossParallelism(t *testing.T) {
	batch := []record.Pair{
		pairOf("x", "y"), pairOf("x", "y"), pairOf("u", "v"), pairOf("w", "z"),
	}
	a := New(&countingModel{}, Options{Parallelism: 1})
	a.ScoreBatch(batch)
	b := New(&countingModel{}, Options{Parallelism: 8})
	b.ScoreBatch(batch)
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ across parallelism: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestKeyDistinguishesContent(t *testing.T) {
	// Value boundaries must not be ambiguous: ("ab","c") vs ("a","bc").
	p1 := record.Pair{
		Left:  record.MustNew("l", testSchema, "ab", "c"),
		Right: record.MustNew("r", testSchema, "", ""),
	}
	p2 := record.Pair{
		Left:  record.MustNew("l", testSchema, "a", "bc"),
		Right: record.MustNew("r", testSchema, "", ""),
	}
	if Key(p1) == Key(p2) {
		t.Fatal("keys collide for different value splits")
	}
	if Key(p1) != Key(p1.Clone()) {
		t.Fatal("key must be content-stable")
	}
}

// lyingModel violates the BatchModel contract by dropping a score.
type lyingModel struct{ countingModel }

func (m *lyingModel) ScoreBatch(pairs []record.Pair) []float64 {
	return make([]float64, len(pairs)-1)
}

func TestBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short batch result")
		}
	}()
	s := New(&lyingModel{}, Options{})
	s.ScoreBatch([]record.Pair{pairOf("x", "y"), pairOf("u", "v")})
}

// TestConcurrentUse scores one pair from eight goroutines through one
// view. The view scores one batch at a time, so the first batch is the
// only miss and every later one reads the view: the Stats are those of
// a sequential caller, whatever the schedule.
func TestConcurrentUse(t *testing.T) {
	m := &countingModel{}
	s := New(m, Options{Parallelism: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Score(pairOf("x", "y"))
			}
		}()
	}
	wg.Wait()
	if want := (Stats{Lookups: 400, Hits: 399, Misses: 1, Batches: 1}); s.Stats() != want {
		t.Fatalf("stats = %+v, want %+v", s.Stats(), want)
	}
}
