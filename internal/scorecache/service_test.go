package scorecache

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"certa/internal/record"
)

// TestKeySchemaNameFramed is the collision regression for the key
// encoding: with the schema name written unframed, a record of schema
// "S;1:x" with an empty first value rendered identically to a record of
// schema "S" whose first value is "x" and second is empty.
func TestKeySchemaNameFramed(t *testing.T) {
	trickSchema := record.MustSchema("S;1:x", "a")
	plainSchema := record.MustSchema("S", "a", "b")
	right := record.MustNew("r", plainSchema, "", "")

	p1 := record.Pair{Left: record.MustNew("l", trickSchema, ""), Right: right}
	p2 := record.Pair{Left: record.MustNew("l", plainSchema, "x", ""), Right: right}
	if Key(p1) == Key(p2) {
		t.Fatalf("keys collide across schema-name/value boundary: %q", Key(p1))
	}
}

// slowModel delays every invocation so concurrent requests for the same
// key genuinely overlap in flight.
type slowModel struct {
	mu    sync.Mutex
	calls int
	delay time.Duration
}

func (m *slowModel) Name() string { return "slow" }

func (m *slowModel) Score(p record.Pair) float64 {
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	return float64(len(p.Left.Value("a"))+len(p.Right.Value("a"))) / 100
}

func (m *slowModel) Calls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

// TestSingleflightDeduplicatesInFlight is the singleflight contract: two
// explanations racing on the same key must produce exactly one model
// call and identical scores. Run under -race in CI.
func TestSingleflightDeduplicatesInFlight(t *testing.T) {
	m := &slowModel{delay: 20 * time.Millisecond}
	svc := NewService(m, ServiceOptions{})
	p := pairOf("x", "y")

	const racers = 8
	scores := make([]float64, racers)
	var start, done sync.WaitGroup
	start.Add(racers)
	done.Add(racers)
	for g := 0; g < racers; g++ {
		go func(g int) {
			defer done.Done()
			view := svc.NewScorer(Options{})
			start.Done()
			start.Wait() // all views release together
			scores[g] = view.Score(p)
		}(g)
	}
	done.Wait()

	if got := m.Calls(); got != 1 {
		t.Fatalf("%d racing views made %d model calls, want 1", racers, got)
	}
	for g := 1; g < racers; g++ {
		if scores[g] != scores[0] {
			t.Fatalf("racer %d got %v, racer 0 got %v", g, scores[g], scores[0])
		}
	}
	st := svc.Stats()
	if st.Misses != 1 || st.Lookups != racers || st.Hits != racers-1 {
		t.Fatalf("service stats = %+v, want 1 miss / %d lookups / %d hits", st, racers, racers-1)
	}
}

// TestViewStatsArePrivateEquivalent pins the determinism contract of the
// view split: a view layered over a warm shared store reports exactly
// the stats a private cache would, while the store answers its misses
// without reaching the model.
func TestViewStatsArePrivateEquivalent(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	batch := []record.Pair{pairOf("x", "y"), pairOf("u", "v"), pairOf("x", "y")}

	a := svc.NewScorer(Options{})
	a.ScoreBatch(batch)
	callsAfterA := m.calls

	b := svc.NewScorer(Options{})
	b.ScoreBatch(batch)

	if m.calls != callsAfterA {
		t.Fatalf("second view reached the model: %d calls, want %d", m.calls, callsAfterA)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("view stats differ with a warm store: %+v vs %+v", a.Stats(), b.Stats())
	}
	want := Stats{Lookups: 3, Hits: 1, Misses: 2, Batches: 1}
	if b.Stats() != want {
		t.Fatalf("view stats = %+v, want %+v", b.Stats(), want)
	}
	// Each view forwards only its 2 view-level misses to the store (the
	// in-batch duplicate never leaves the view), so the store sees 4
	// lookups: view A's 2 misses, then view B's 2 answered as hits.
	st := svc.Stats()
	if st.Lookups != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("service stats = %+v, want 4 lookups / 2 hits / 2 misses", st)
	}
}

// TestCapacityBoundEvicts exercises the sharded LRU: the store never
// holds more than its capacity, evicted keys are re-scored on demand,
// and the returned scores are unaffected.
func TestCapacityBoundEvicts(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{Capacity: 8, Shards: 1})

	var pairs []record.Pair
	vals := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff"}
	for _, a := range vals {
		for _, b := range vals {
			pairs = append(pairs, pairOf(a, b))
		}
	}
	first := svc.ScoreBatch(pairs)
	if svc.shards[0].linked > 8 {
		t.Fatalf("store holds %d entries, capacity 8", svc.shards[0].linked)
	}
	if svc.Stats().Evictions == 0 {
		t.Fatal("expected evictions past the capacity bound")
	}
	callsAfterFirst := m.calls
	second := svc.ScoreBatch(pairs)
	if m.calls <= callsAfterFirst {
		t.Fatal("evicted keys should be re-scored")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("slot %d differs after eviction: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestCapacityZeroIsUnbounded pins the default: no evictions, every key
// scored once ever.
func TestCapacityZeroIsUnbounded(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{Shards: 2})
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			svc.Score(pairOf(string(rune('a'+i%26)), string(rune('a'+i/26))))
		}
	}
	if m.calls != 50 {
		t.Fatalf("unbounded store made %d model calls for 50 keys", m.calls)
	}
	if svc.Stats().Evictions != 0 {
		t.Fatalf("unbounded store evicted %d entries", svc.Stats().Evictions)
	}
}

// TestConcurrentViewsOverlappingKeys hammers the striped store from many
// views with overlapping key sets (run under -race in CI): the model
// must be reached exactly once per unique key, and every view must see
// identical scores.
func TestConcurrentViewsOverlappingKeys(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{Parallelism: 2, Shards: 4})

	vals := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g", "hh"}
	mkBatch := func(offset int) []record.Pair {
		var out []record.Pair
		for i, a := range vals {
			for j, b := range vals {
				if (i+j+offset)%3 == 0 { // overlapping subsets per view
					out = append(out, pairOf(a, b))
				}
			}
		}
		return out
	}

	const goroutines = 12
	results := make([][]float64, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			view := svc.NewScorer(Options{Parallelism: 2})
			for round := 0; round < 5; round++ {
				results[g] = view.ScoreBatch(mkBatch(g % 3))
			}
		}(g)
	}
	wg.Wait()

	unique := make(map[string]bool)
	for g := 0; g < goroutines; g++ {
		for _, p := range mkBatch(g % 3) {
			unique[Key(p)] = true
		}
	}
	if m.calls != len(unique) {
		t.Fatalf("model reached %d times for %d unique keys", m.calls, len(unique))
	}
	for g := 0; g < goroutines; g++ {
		ref := results[g%3]
		for i := range results[g] {
			if results[g][i] != ref[i] {
				t.Fatalf("view %d slot %d: %v != %v", g, i, results[g][i], ref[i])
			}
		}
	}
}

// TestServiceScoreBatchDeduplicates covers the Service used directly as
// a model (the baselines path): in-batch duplicates are resolved without
// extra model calls.
func TestServiceScoreBatchDeduplicates(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	batch := []record.Pair{
		pairOf("x", "y"), pairOf("u", "v"), pairOf("x", "y"), pairOf("u", "v"),
	}
	scores := svc.ScoreBatch(batch)
	if m.calls != 2 {
		t.Fatalf("model invoked %d times, want 2 unique", m.calls)
	}
	if scores[0] != scores[2] || scores[1] != scores[3] {
		t.Fatal("duplicate slots must receive the shared score")
	}
	st := svc.Stats()
	if st.Lookups != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("service stats = %+v, want 4 lookups / 2 hits / 2 misses", st)
	}
}

// TestDisabledViewBypassesStore pins the ablation semantics: a disabled
// view reaches the model on every lookup and never warms the store.
func TestDisabledViewBypassesStore(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	off := svc.NewScorer(Options{Disabled: true})
	p := pairOf("x", "y")
	off.ScoreBatch([]record.Pair{p, p, p})
	off.Score(p)
	if m.calls != 4 {
		t.Fatalf("disabled view made %d model calls, want 4", m.calls)
	}
	on := svc.NewScorer(Options{})
	on.Score(p)
	if m.calls != 5 {
		t.Fatalf("store was warmed by the disabled view: %d calls, want 5", m.calls)
	}
}

// TestConcurrentViewsMixFlipsAndScores runs views that interleave keyed
// lookups — the path the lattice oracle's flip questions take — with
// pair score calls over overlapping keys on one Service (run with -race
// -count=10): lookups read the same shards publication writes. Every
// answer must match the model, and an unbounded store must reach the
// model once per unique key.
func TestConcurrentViewsMixFlipsAndScores(t *testing.T) {
	vals := []string{"a", "bb", "ccc", "dddd", "eeeee", strings.Repeat("f", 30), strings.Repeat("g", 45), "hh"}
	mkBatch := func(offset int) []record.Pair {
		var out []record.Pair
		for i, a := range vals {
			for j, b := range vals {
				if (i+j+offset)%3 == 0 {
					out = append(out, pairOf(a, b))
				}
			}
		}
		return out
	}
	for _, capacity := range []int{0, 12} {
		t.Run(fmt.Sprintf("capacity=%d", capacity), func(t *testing.T) {
			m := &countingModel{}
			svc := NewService(m, ServiceOptions{Parallelism: 2, Shards: 4, Capacity: capacity})
			ref := &countingModel{}

			const goroutines = 12
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					batch := mkBatch(g % 3)
					want := ref.ScoreBatch(batch)
					view := svc.NewScorer(Options{Parallelism: 2})
					keys := make([]string, len(batch))
					for i, p := range batch {
						keys[i] = view.Key(p)
					}
					for round := 0; round < 6; round++ {
						var got []float64
						var err error
						if (g+round)%2 == 0 {
							got, err = view.ScoreBatchContext(context.Background(), batch)
						} else {
							got, err = view.ScoreBatchKeyedContext(context.Background(), keys, func(i int) record.Pair { return batch[i] })
						}
						if err != nil {
							t.Error(err)
							return
						}
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("view %d round %d score %d = %v, want %v", g, round, i, got[i], want[i])
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()

			unique := make(map[string]bool)
			for off := 0; off < 3; off++ {
				for _, p := range mkBatch(off) {
					unique[Key(p)] = true
				}
			}
			if capacity == 0 && m.calls != len(unique) {
				t.Fatalf("model reached %d times for %d unique keys", m.calls, len(unique))
			}
			if capacity > 0 && svc.Len() > 12 {
				t.Fatalf("bounded store holds %d entries, capacity 12", svc.Len())
			}
		})
	}
}
