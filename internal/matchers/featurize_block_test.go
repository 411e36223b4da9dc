package matchers

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"certa/internal/embedding"
	"certa/internal/strutil"
)

// blockTestText is a deterministic stand-in embedder for the block
// tests: hash-seeded vectors, like the real one, without a corpus fit.
// Embeddings are memoized, mirroring the production path where
// Model.text goes through the embedding memo, so the benchmark isolates
// the similarity computations rather than re-embedding per call.
func blockTestText() textFunc {
	emb := embedding.New(16)
	emb.Fit([]string{"sony dcr trv27 minidv handycam", "canon zr60 digital camcorder 3.99"})
	memo := make(map[string][]float64)
	return func(s string) []float64 {
		if v, ok := memo[s]; ok {
			return v
		}
		v := emb.Text(s)
		memo[s] = v
		return v
	}
}

// appendAttrBlockRef is the pre-optimization reference: each similarity
// re-tokenizes its inputs independently. It is the bit-identity oracle
// for the tokenize-once path and the "before" side of BenchmarkAttrBlock.
func appendAttrBlockRef(dst []float64, text textFunc, lv, rv string) []float64 {
	lm, rm := strutil.IsMissing(lv), strutil.IsMissing(rv)
	if lm || rm {
		bothMissing, oneMissing := 0.0, 1.0
		if lm && rm {
			bothMissing, oneMissing = 1.0, 0.0
		}
		return append(dst, 0, 0, 0, 0, 0, bothMissing, oneMissing)
	}
	return append(dst,
		embedding.Cosine(text(lv), text(rv)),
		strutil.Jaccard(lv, rv),
		strutil.LevenshteinSimilarity(truncateForLev(lv), truncateForLev(rv)),
		strutil.ContainmentSimilarity(lv, rv),
		strutil.NumberOverlap(lv, rv),
		0,
		0,
	)
}

// TestAttrBlockMatchesReference gates the tokenize-once rewrite: for
// adversarial value pairs (missing markers, unicode, duplicate tokens,
// numbers, punctuation) the production block must equal the reference
// block bit for bit in every position.
func TestAttrBlockMatchesReference(t *testing.T) {
	text := blockTestText()
	values := []string{
		"", "NaN", "null", "None", "nan",
		"Sony DCR-TRV27", "sony dcr-trv27", "sony sony sony", "dcr trv27 1,000 $3.99",
		"é accents Ünicode", "3.99", "a b a b a", strings.Repeat("long value ", 12),
		"  spaced   out  ", "\tcontrol\x01chars", "1 2 3 4 5", "5 4 3 2 1",
	}
	rng := rand.New(rand.NewSource(9))
	check := func(lv, rv string) {
		t.Helper()
		got := appendAttrBlock(nil, text, lv, rv)
		want := appendAttrBlockRef(nil, text, lv, rv)
		if len(got) != dmBlock || len(want) != dmBlock {
			t.Fatalf("block(%q, %q): lengths %d/%d, want %d", lv, rv, len(got), len(want), dmBlock)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("block(%q, %q)[%d] = %v, want %v", lv, rv, i, got[i], want[i])
			}
		}
	}
	for _, lv := range values {
		for _, rv := range values {
			check(lv, rv)
		}
	}
	for trial := 0; trial < 300; trial++ {
		check(values[rng.Intn(len(values))], values[rng.Intn(len(values))])
	}
}

// BenchmarkAttrBlock reports the before/after cost of one attribute
// block on a representative product-title pair.
func BenchmarkAttrBlock(b *testing.B) {
	text := blockTestText()
	lv := "Sony DCR-TRV27 MiniDV Handycam Camcorder w/ 2.5\" LCD"
	rv := "sony dcr trv27 minidv digital handycam camcorder 690 usd"
	dst := make([]float64, 0, dmBlock)
	b.Run("tokenize-once", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = appendAttrBlock(dst[:0], text, lv, rv)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = appendAttrBlockRef(dst[:0], text, lv, rv)
		}
	})
}
