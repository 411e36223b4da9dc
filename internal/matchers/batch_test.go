package matchers

import (
	"testing"

	"certa/internal/dataset"
	"certa/internal/record"
)

// TestScoreBatchMatchesScore checks the batch path is bit-identical to
// scalar scoring for every architecture, including batches dominated by
// pairs sharing a record (the embedding-memo path).
func TestScoreBatchMatchesScore(t *testing.T) {
	b := dataset.MustGenerate("AB", dataset.Options{Seed: 3, MaxRecords: 60, MaxMatches: 30})
	for _, kind := range []Kind{DeepER, DeepMatcher, Ditto, SVM} {
		m, err := Train(kind, b, Config{Seed: 3, Epochs: 5})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var pairs []record.Pair
		for _, lp := range b.Test {
			pairs = append(pairs, lp.Pair)
		}
		// Shared-record batch: one pivot against many rights.
		pivot := b.Test[0].Pair.Left
		for _, lp := range b.Test[:min(8, len(b.Test))] {
			pairs = append(pairs, record.Pair{Left: pivot, Right: lp.Pair.Right})
		}
		got := m.ScoreBatch(pairs)
		if len(got) != len(pairs) {
			t.Fatalf("%s: %d scores for %d pairs", kind, len(got), len(pairs))
		}
		for i, p := range pairs {
			if want := m.Score(p); got[i] != want {
				t.Errorf("%s: pair %d batch score %v != scalar %v", kind, i, got[i], want)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEmbeddingMemoPersistsAcrossBatches: the matcher-owned embedding
// memo must keep serving texts seen in earlier batches (the per-batch
// memo it replaced forgot everything between calls), so a repeated batch
// is all hits and adds no entries.
func TestEmbeddingMemoPersistsAcrossBatches(t *testing.T) {
	b := dataset.MustGenerate("AB", dataset.Options{Seed: 5, MaxRecords: 40, MaxMatches: 20})
	m, err := Train(DeepMatcher, b, Config{Seed: 5, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []record.Pair
	for _, lp := range b.Test[:min(6, len(b.Test))] {
		pairs = append(pairs, lp.Pair)
	}
	first := m.ScoreBatch(pairs)
	st1 := m.EmbeddingStats()
	if st1.Entries == 0 {
		t.Fatal("embedding memo empty after scoring; memo not wired into ScoreBatch")
	}
	second := m.ScoreBatch(pairs)
	st2 := m.EmbeddingStats()
	if st2.Entries != st1.Entries {
		t.Fatalf("repeat batch grew the memo: %d -> %d entries", st1.Entries, st2.Entries)
	}
	if st2.Misses != st1.Misses {
		t.Fatalf("repeat batch recomputed embeddings: misses %d -> %d", st1.Misses, st2.Misses)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("pair %d: repeat score %v != first %v", i, second[i], first[i])
		}
	}
}
