package scorecache

import (
	"context"
	"errors"
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

// gateModel scores a pair by its left "a" value from a fixed table and
// counts calls per value. A value with a gate parks its call, after
// sending the value on entered, until the gate is closed.
type gateModel struct {
	scores  map[string]float64
	gates   map[string]chan struct{}
	entered chan string

	mu    sync.Mutex
	calls map[string]int
}

func (m *gateModel) Name() string { return "gate" }

func (m *gateModel) Score(p record.Pair) float64 {
	v := p.Left.Value("a")
	m.mu.Lock()
	m.calls[v]++
	m.mu.Unlock()
	if gate := m.gates[v]; gate != nil {
		m.entered <- v
		<-gate
	}
	return m.scores[v]
}

// TestWaitersReadOwnScoresAfterSlotReuse holds four waiters on a
// leader's in-flight batch while the leader publishes into a store of
// capacity 2, which evicts half of its keys as it publishes, and a
// second batch then takes over the evicted keys' records. Only then do
// the waiters read. Each must get its own key's score, every key must
// reach the model exactly once, and the reuse must have happened: the
// waiters read from their claim, not from records the store has since
// given to other keys. Run under -race in CI.
func TestWaitersReadOwnScoresAfterSlotReuse(t *testing.T) {
	const n = 4
	m := &gateModel{
		scores:  map[string]float64{},
		gates:   map[string]chan struct{}{},
		entered: make(chan string, 2*n),
		calls:   map[string]int{},
	}
	leadGate, ownGate := make(chan struct{}), make(chan struct{})
	lead, own, fill := make([]record.Pair, n), make([]record.Pair, n), make([]record.Pair, 2)
	for i := range lead {
		lead[i] = pairOf(fmt.Sprintf("lead-%d", i), "x")
		own[i] = pairOf(fmt.Sprintf("own-%d", i), "x")
		m.scores[fmt.Sprintf("lead-%d", i)] = 0.1 + float64(i)/10
		m.scores[fmt.Sprintf("own-%d", i)] = 0.15 + float64(i)/10
		m.gates[fmt.Sprintf("own-%d", i)] = ownGate
	}
	for i := range fill {
		fill[i] = pairOf(fmt.Sprintf("fill-%d", i), "x")
		m.scores[fmt.Sprintf("fill-%d", i)] = 0.91 + float64(i)/100
	}
	m.gates["lead-0"] = leadGate
	svc := NewService(m, ServiceOptions{Capacity: 2, Shards: 1})
	sh := &svc.shards[0]

	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.ScoreBatchContext(context.Background(), lead)
		leaderDone <- err
	}()
	if v := <-m.entered; v != "lead-0" {
		t.Fatalf("first model call scored %q, want lead-0", v)
	}

	// Each waiter enlists on one of the leader's keys, then parks in the
	// model on a key of its own, so it reads the leader's scores only
	// after its own batch is released.
	type result struct {
		scores []float64
		err    error
	}
	results := make([]chan result, n)
	for i := range results {
		results[i] = make(chan result, 1)
		go func(i int) {
			got, err := svc.ScoreBatchContext(context.Background(), []record.Pair{lead[i], own[i]})
			results[i] <- result{got, err}
		}(i)
	}
	for range n {
		<-m.entered
	}

	leadRecs := make([]uint32, n)
	sh.mu.Lock()
	for i, p := range lead {
		k := svc.key(p)
		r, ok := sh.find(svc.hash(k), k)
		if !ok || sh.recs[r].claim == nil {
			sh.mu.Unlock()
			t.Fatalf("lead-%d is not pending while its leader is parked", i)
		}
		leadRecs[i] = r
	}
	sh.mu.Unlock()

	close(leadGate)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if _, err := svc.ScoreBatchContext(context.Background(), fill); err != nil {
		t.Fatalf("fill batch: %v", err)
	}
	sh.mu.Lock()
	reused := 0
	for i, r := range leadRecs {
		k := svc.key(lead[i])
		if _, ok := sh.find(svc.hash(k), k); ok {
			continue
		}
		if sh.recs[r].claim == nil && string(sh.key(r)) != k {
			reused++
		}
	}
	sh.mu.Unlock()
	if reused == 0 {
		t.Fatal("no evicted leader record was reused before the waiters read; the test does not exercise reuse")
	}

	close(ownGate)
	for i, res := range results {
		r := <-res
		if r.err != nil {
			t.Fatalf("waiter %d: %v", i, r.err)
		}
		if want := m.scores[fmt.Sprintf("lead-%d", i)]; r.scores[0] != want {
			t.Errorf("waiter %d read %v for lead-%d, want %v", i, r.scores[0], i, want)
		}
		if want := m.scores[fmt.Sprintf("own-%d", i)]; r.scores[1] != want {
			t.Errorf("waiter %d read %v for own-%d, want %v", i, r.scores[1], i, want)
		}
	}
	for v := range m.scores {
		if c := m.calls[v]; c != 1 {
			t.Errorf("%s reached the model %d times, want 1", v, c)
		}
	}
}

// TestViewForwardsKeysInFlightInItsOtherBatch runs two batches of one
// view at once: the second asks, twice, for a key the first is still
// scoring. The view must forward the key to the store, which waits on
// the first batch's claim, rather than read the first batch's slot
// before it holds a score; it counts the key as a private cache would
// (a miss, then an in-batch duplicate) and reaches the model once per
// key. A later batch then finds both keys in the view.
func TestViewForwardsKeysInFlightInItsOtherBatch(t *testing.T) {
	gate := make(chan struct{})
	m := &gateModel{
		scores:  map[string]float64{"slow": 0.25, "fast": 0.75},
		gates:   map[string]chan struct{}{"slow": gate, "fast": gate},
		entered: make(chan string, 2),
		calls:   map[string]int{},
	}
	view := NewService(m, ServiceOptions{}).NewScorer(Options{})
	slow, fast := pairOf("slow", "x"), pairOf("fast", "x")

	firstDone := make(chan []float64, 1)
	go func() { firstDone <- view.ScoreBatch([]record.Pair{slow}) }()
	<-m.entered // the first batch holds slow in the model
	secondDone := make(chan []float64, 1)
	go func() { secondDone <- view.ScoreBatch([]record.Pair{slow, slow, fast}) }()
	<-m.entered // the second batch has enlisted on slow and holds fast
	close(gate)

	if got := <-firstDone; got[0] != 0.25 {
		t.Fatalf("first batch scored slow %v, want 0.25", got[0])
	}
	if got := <-secondDone; got[0] != 0.25 || got[1] != 0.25 || got[2] != 0.75 {
		t.Fatalf("second batch scored %v, want [0.25 0.25 0.75]", got)
	}
	if want := (Stats{Lookups: 4, Hits: 1, Misses: 3, Batches: 2}); view.Stats() != want {
		t.Fatalf("view stats = %+v, want %+v", view.Stats(), want)
	}
	if got := view.ScoreBatch([]record.Pair{fast, slow}); got[0] != 0.75 || got[1] != 0.25 {
		t.Fatalf("third batch scored %v, want [0.75 0.25]", got)
	}
	if want := (Stats{Lookups: 6, Hits: 3, Misses: 3, Batches: 2}); view.Stats() != want {
		t.Fatalf("view stats after the third batch = %+v, want %+v", view.Stats(), want)
	}
	if m.calls["slow"] != 1 || m.calls["fast"] != 1 {
		t.Fatalf("model calls %v, want one per key", m.calls)
	}
}

// TestCancelledViewBatchLeavesNoKeys cancels a view's batch while the
// model holds it: none of its keys may stay in the view, so asking for
// them again is a miss that reaches the store and returns their scores,
// never a zero from the failed batch's slots.
func TestCancelledViewBatchLeavesNoKeys(t *testing.T) {
	m := &ctxModel{poison: "bad", blocked: make(chan struct{}, 1)}
	m.armed.Store(true)
	view := NewService(m, ServiceOptions{}).NewScorer(Options{})
	pairs := []record.Pair{pairOf("bad", "1"), pairOf("okay", "1")}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-m.blocked
		cancel()
	}()
	if _, err := view.ScoreBatchContext(ctx, pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	before := view.Stats()
	got, err := view.ScoreBatchContext(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != m.Score(pairs[0]) || got[1] != m.Score(pairs[1]) {
		t.Fatalf("scores after the cancelled batch = %v, want [%v %v]", got, m.Score(pairs[0]), m.Score(pairs[1]))
	}
	if st := view.Stats(); st.Hits != before.Hits || st.Misses != before.Misses+2 {
		t.Fatalf("stats went %+v -> %+v, want two more misses and no hit", before, st)
	}
}

// TestReleasedViewStartsEmpty pins Release: a view that takes a
// released key set starts empty. The keys the released view scored,
// also after one of its batches was cancelled, are misses in the next
// view's Stats, as in a private cache, and the store answers them
// without calling the model.
func TestReleasedViewStartsEmpty(t *testing.T) {
	m := &ctxModel{poison: "bad", blocked: make(chan struct{}, 1)}
	svc := NewService(m, ServiceOptions{})
	scored := []record.Pair{pairOf("k1", "1"), pairOf("k2", "1"), pairOf("k3", "1")}
	reused := 0
	for round := 0; round < 20; round++ {
		view := svc.NewScorer(Options{})
		if _, err := view.ScoreBatchContext(context.Background(), scored); err != nil {
			t.Fatal(err)
		}
		// A batch cancelled in the model leaves the view holding the
		// keys of its earlier batch.
		m.armed.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-m.blocked
			cancel()
		}()
		if _, err := view.ScoreBatchContext(ctx, []record.Pair{pairOf("bad", "1"), scored[0]}); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
		view.Release()

		next := svc.NewScorer(Options{})
		if len(next.local.slots) > 0 {
			reused++
		}
		before := m.invocations.Load()
		got, err := next.ScoreBatchContext(context.Background(), scored)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range scored {
			if got[i] != m.Score(p) {
				t.Fatalf("round %d: score %d = %v, want %v", round, i, got[i], m.Score(p))
			}
		}
		if want := (Stats{Lookups: 3, Misses: 3, Batches: 1}); next.Stats() != want {
			t.Fatalf("round %d: a view after Release reads %+v, want %+v", round, next.Stats(), want)
		}
		if n := m.invocations.Load() - before; n != 0 {
			t.Fatalf("round %d: %d model calls for stored keys", round, n)
		}
		next.Release()
	}
	if reused == 0 {
		t.Fatal("no view took a released key set")
	}
}

// TestConcurrentKeyedBatchesMatchPrivate scores keyed batches from
// eight goroutines, each through its own view of one shared service, so
// that concurrent batches take their scratch from, and return it to,
// one pool while they wait on each other's claims. Every score and each
// view's Stats must equal those of a private cache fed the same
// batches, and the shared model must score each distinct pair once.
func TestConcurrentKeyedBatchesMatchPrivate(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{Parallelism: 2, Shards: 4})
	vals := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g", "hh", "iii"}
	// batches are goroutine g's: overlapping pair sets with in-batch
	// duplicates, each pair built afresh so only content keys it.
	batches := func(g int) [][]record.Pair {
		var out [][]record.Pair
		for round := 0; round < 6; round++ {
			var b []record.Pair
			for i, a := range vals {
				for j, c := range vals {
					if (i*j+g+round)%4 != 0 {
						continue
					}
					b = append(b, pairOf(a, c))
					if (i+j)%5 == 0 {
						b = append(b, pairOf(a, c))
					}
				}
			}
			out = append(out, b)
		}
		return out
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := svc.NewScorer(Options{Parallelism: 2})
			defer view.Release()
			private := New(&countingModel{}, Options{})
			for round, b := range batches(g) {
				keys := make([]string, len(b))
				for i, p := range b {
					keys[i] = view.Key(p)
				}
				got, err := view.ScoreBatchKeyedContext(context.Background(), keys, func(i int) record.Pair { return b[i] })
				if err != nil {
					t.Error(err)
					return
				}
				want := private.ScoreBatch(b)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("goroutine %d round %d: score %d = %v, private cache %v", g, round, i, got[i], want[i])
						return
					}
				}
			}
			if got, want := view.Stats(), private.Stats(); got != want {
				t.Errorf("goroutine %d: view Stats %+v, private cache %+v", g, got, want)
			}
		}()
	}
	wg.Wait()

	unique := make(map[string]bool)
	for g := range goroutines {
		for _, b := range batches(g) {
			for _, p := range b {
				unique[Key(p)] = true
			}
		}
	}
	if m.calls != len(unique) {
		t.Fatalf("shared model scored %d pairs for %d distinct ones", m.calls, len(unique))
	}
}
