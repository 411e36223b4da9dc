package scorecache

import (
	"context"
	"strings"
	"testing"

	"certa/internal/record"
)

// flipPairs builds pairs straddling the decision threshold: countingModel
// scores 2*len(a)/100, so a long "a" value predicts the positive class
// and a short one the negative class.
func flipPairs() []record.Pair {
	long := strings.Repeat("x", 30) // score 0.6 -> class true
	return []record.Pair{
		pairOf(long, "b1"),
		pairOf("x", "b2"), // score 0.02 -> class false
		pairOf(long+"y", "b3"),
		pairOf("xy", "b4"),
	}
}

func wantFlips(s *Service, pairs []record.Pair, y bool) []bool {
	scores := s.Underlying().ScoreBatch(pairs)
	out := make([]bool, len(scores))
	for i, v := range scores {
		out[i] = (v > 0.5) != y
	}
	return out
}

// TestFlipMemoAnswersAcrossViews is the memo's core contract: once one
// view settles a pair content's class, a second view's flip query is
// answered from the memo — no score-store lookup, no model call — while
// the second view's own Stats still read exactly like a private cache's.
func TestFlipMemoAnswersAcrossViews(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	pairs := flipPairs()
	y := false
	want := wantFlips(svc, pairs, y)

	a := svc.NewScorer(Options{})
	gotA, err := a.ScoreFlipsContext(context.Background(), pairs, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if gotA[i] != want[i] {
			t.Fatalf("view A flip %d = %v, want %v", i, gotA[i], want[i])
		}
	}
	if st := svc.Stats(); st.FlipLookups != len(pairs) || st.FlipHits != 0 {
		t.Fatalf("first view: flip stats %d/%d, want %d lookups, 0 hits",
			st.FlipHits, st.FlipLookups, len(pairs))
	}
	afterA := svc.Stats()
	callsAfterA := m.calls

	b := svc.NewScorer(Options{})
	gotB, err := b.ScoreFlipsContext(context.Background(), pairs, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if gotB[i] != want[i] {
			t.Fatalf("view B flip %d = %v, want %v", i, gotB[i], want[i])
		}
	}
	if m.calls != callsAfterA {
		t.Fatalf("memo-answered view reached the model: %d calls, want %d", m.calls, callsAfterA)
	}
	st := svc.Stats()
	if st.FlipHits != len(pairs) {
		t.Fatalf("second view: %d flip hits, want %d", st.FlipHits, len(pairs))
	}
	if st.Lookups != afterA.Lookups || st.Misses != afterA.Misses {
		t.Fatalf("memo-answered view touched the score store: lookups %d->%d, misses %d->%d",
			afterA.Lookups, st.Lookups, afterA.Misses, st.Misses)
	}
	// Private-equivalent accounting: view B requested unique evaluations
	// it had never seen, so its Stats must read like a private cache's
	// regardless of who answered.
	vb := b.Stats()
	if vb.Lookups != len(pairs) || vb.Hits != 0 || vb.Misses != len(pairs) || vb.Batches != 1 {
		t.Fatalf("view B stats = %+v, want %d lookups / 0 hits / %d misses / 1 batch",
			vb, len(pairs), len(pairs))
	}
}

// TestFlipMemoizedKeyLaterScored covers the sentinel path: a view that
// learned a key's class from the memo (score never fetched) must treat a
// later score request as a view hit and silently fetch the score from
// the shared store without a new model call.
func TestFlipMemoizedKeyLaterScored(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	pairs := flipPairs()
	wantScores := svc.Underlying().ScoreBatch(pairs)

	a := svc.NewScorer(Options{})
	if _, err := a.ScoreFlipsContext(context.Background(), pairs, false); err != nil {
		t.Fatal(err)
	}
	b := svc.NewScorer(Options{})
	if _, err := b.ScoreFlipsContext(context.Background(), pairs, true); err != nil {
		t.Fatal(err)
	}
	callsBefore := m.calls
	preB := b.Stats()

	scores, err := b.ScoreBatchContext(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantScores {
		if scores[i] != wantScores[i] {
			t.Fatalf("memoized key %d rescored to %v, want %v", i, scores[i], wantScores[i])
		}
	}
	if m.calls != callsBefore {
		t.Fatalf("scoring memoized keys reached the model: %d calls, want %d", m.calls, callsBefore)
	}
	vb := b.Stats()
	if vb.Hits != preB.Hits+len(pairs) {
		t.Fatalf("memoized keys must resolve as view hits: hits %d -> %d, want +%d",
			preB.Hits, vb.Hits, len(pairs))
	}
	if vb.Misses != preB.Misses || vb.Batches != preB.Batches {
		t.Fatalf("silent fetch charged the view: misses %d->%d, batches %d->%d",
			preB.Misses, vb.Misses, preB.Batches, vb.Batches)
	}

	// Once fetched, the keys live in the view's score map; a repeat batch
	// is answered locally without touching the shared store at all.
	svcBefore := svc.Stats()
	if _, err := b.ScoreBatchContext(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Lookups != svcBefore.Lookups {
		t.Fatalf("repeat batch leaked to the store: %d -> %d lookups", svcBefore.Lookups, st.Lookups)
	}
}

// TestFlipMemoDisabled pins the ablation path: with DisableFlipMemo the
// oracle call degrades to score-plus-threshold and records no flip
// statistics, and answers are unchanged.
func TestFlipMemoDisabled(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{DisableFlipMemo: true})
	pairs := flipPairs()
	for _, y := range []bool{false, true} {
		want := wantFlips(svc, pairs, y)
		s := svc.NewScorer(Options{})
		got, err := s.ScoreFlipsContext(context.Background(), pairs, y)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("y=%v: flip %d = %v, want %v", y, i, got[i], want[i])
			}
		}
	}
	if st := svc.Stats(); st.FlipLookups != 0 || st.FlipHits != 0 {
		t.Fatalf("disabled memo recorded flip stats: %+v", st)
	}
}

// TestFlipBatchDuplicates checks in-batch duplicate handling on the flip
// path mirrors the score path: one unique miss, duplicates as view hits.
func TestFlipBatchDuplicates(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	s := svc.NewScorer(Options{})
	long := strings.Repeat("z", 40)
	batch := []record.Pair{pairOf(long, "b"), pairOf(long, "b"), pairOf(long, "b")}
	got, err := s.ScoreFlipsContext(context.Background(), batch, true)
	if err != nil {
		t.Fatal(err)
	}
	// Score 0.8 -> class true, y=true -> no flip.
	for i, f := range got {
		if f {
			t.Fatalf("flip %d = true for matching class", i)
		}
	}
	if m.calls != 1 {
		t.Fatalf("model invoked %d times for one unique content, want 1", m.calls)
	}
	st := s.Stats()
	if st.Lookups != 3 || st.Hits != 2 || st.Misses != 1 || st.Batches != 1 {
		t.Fatalf("stats = %+v, want 3 lookups / 2 hits / 1 miss / 1 batch", st)
	}
}

// TestFlipMemoHonorsCapacity pins that the capacity bound covers flip
// answers: they are read from the store's entries, so once the LRU
// evicts a key, a flip question about it is not a memo hit and the key
// is scored again.
func TestFlipMemoHonorsCapacity(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{Capacity: 4, Shards: 1})
	target := pairOf(strings.Repeat("x", 30), "target")
	if _, err := svc.ScoreBatchContext(context.Background(), []record.Pair{target}); err != nil {
		t.Fatal(err)
	}
	var filler []record.Pair
	for i := 0; i < 8; i++ {
		filler = append(filler, pairOf("f", strings.Repeat("b", i+1)))
	}
	if _, err := svc.ScoreBatchContext(context.Background(), filler); err != nil {
		t.Fatal(err)
	}
	if svc.Len() > 4 {
		t.Fatalf("store holds %d entries, capacity 4", svc.Len())
	}
	want := wantFlips(svc, []record.Pair{target}, false)
	before, calls := svc.Stats(), m.calls

	got, err := svc.NewScorer(Options{}).ScoreFlipsContext(context.Background(), []record.Pair{target}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("flip = %v, want %v", got[0], want[0])
	}
	st := svc.Stats()
	if st.FlipLookups != before.FlipLookups+1 || st.FlipHits != before.FlipHits {
		t.Fatalf("evicted key answered by the flip memo: flip lookups %d->%d, hits %d->%d",
			before.FlipLookups, st.FlipLookups, before.FlipHits, st.FlipHits)
	}
	if m.calls != calls+1 {
		t.Fatalf("evicted key not re-scored: %d model calls, want %d", m.calls, calls+1)
	}
}
