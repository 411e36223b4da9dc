// Package embedding provides deterministic token and text embeddings for
// the ER matchers. In place of the pre-trained fastText vectors used by
// DeepER/DeepMatcher (unavailable offline), tokens are embedded by
// hashing: each token's vector is a unit vector derived from a
// deterministic PRNG seeded by the token's hash, blended with the hashed
// vectors of its character trigrams. The trigram blending gives the
// fastText-like property that typo variants of a token land close to each
// other, which the benchmarks' noisy values rely on.
//
// Text embeddings are IDF-weighted means of token vectors; IDF is fit on
// the benchmark corpus so frequent filler words ("with", "and") carry
// less weight than discriminative tokens (brands, model numbers).
//
// The package is plain Go with no assembly. Cosine's three sums must
// add in index order to keep their bits, so a vector kernel cannot
// split them across lanes: one that kept the order ran 1.5–2x slower
// than the loop. An AVX kernel for AbsDiffMul ran within noise of the
// loop on a 256-pair DeepER batch.
package embedding

import (
	"fmt"
	"math"

	"certa/internal/strutil"
)

// Embedder turns tokens and texts into fixed-dimension dense vectors.
// After Fit it is read-only and safe for concurrent use.
type Embedder struct {
	// Dim is the embedding dimensionality.
	Dim int

	idf        map[string]float64
	defaultIDF float64
}

// maxDim bounds an embedder's dimensionality. The matchers use 24; the
// bound keeps a corrupt or hostile model file from sizing every vector
// past memory.
const maxDim = 4096

// New creates an embedder with the given dimensionality, which must lie
// in 1..4096.
func New(dim int) *Embedder {
	if dim <= 0 || dim > maxDim {
		panic(fmt.Sprintf("embedding: dimension %d is outside 1..%d", dim, maxDim))
	}
	return &Embedder{Dim: dim, defaultIDF: 1}
}

// Fit computes IDF weights from a corpus of documents (each document is a
// raw text whose tokens are counted once).
func (e *Embedder) Fit(corpus []string) {
	df := make(map[string]int)
	for _, doc := range corpus {
		for tok := range strutil.TokenSet(doc) {
			df[tok]++
		}
	}
	n := float64(len(corpus))
	if n == 0 {
		return
	}
	e.idf = make(map[string]float64, len(df))
	for tok, d := range df {
		e.idf[tok] = math.Log(1 + n/float64(d))
	}
	// Unknown tokens are treated as rare (high signal).
	e.defaultIDF = math.Log(1 + n)
}

// IDF returns the inverse document frequency weight of a token.
func (e *Embedder) IDF(tok string) float64 {
	if e.idf == nil {
		return 1
	}
	if w, ok := e.idf[tok]; ok {
		return w
	}
	return e.defaultIDF
}

// Token embeds a single token: the hashed whole-token vector plus the sum
// of its hashed trigram vectors, L2-normalized.
func (e *Embedder) Token(tok string) []float64 {
	v := make([]float64, e.Dim)
	addHashed(v, tok, 1)
	for _, g := range strutil.NGrams(tok, 3) {
		addHashed(v, "##"+g, 0.5)
	}
	normalize(v)
	return v
}

// Text embeds a whole text as the IDF-weighted mean of its token
// embeddings, L2-normalized. Missing values embed to the zero vector.
func (e *Embedder) Text(s string) []float64 { return e.TextWith(s, e.Token) }

// TextWith is Text with the token vectors supplied by token, which must
// return what Token returns (a memo in front of Token, say) and whose
// vectors are only read. The vectors are summed in token order with the
// same IDF weights, so the result is bit-identical to Text's.
func (e *Embedder) TextWith(s string, token func(string) []float64) []float64 {
	v := make([]float64, e.Dim)
	toks := strutil.Tokenize(s)
	if len(toks) == 0 {
		return v
	}
	for _, tok := range toks {
		w := e.IDF(tok)
		tv := token(tok)
		for i := range v {
			v[i] += w * tv[i]
		}
	}
	normalize(v)
	return v
}

// Cosine is the cosine similarity between two embeddings, 0 when either
// is the zero vector.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// addHashed adds weight * unitHash(s) into v using a splitmix64 stream
// seeded by the FNV-1a hash of s. The per-component values approximate a
// standard normal via the sum of uniforms.
func addHashed(v []float64, s string, weight float64) {
	state := fnv64(s)
	for i := range v {
		// Sum of 4 uniforms, centered: approximately normal with
		// variance 1/3; good enough token geometry.
		var sum float64
		for k := 0; k < 4; k++ {
			state = splitmix64(state)
			sum += float64(state>>11) / float64(1<<53)
		}
		v[i] += weight * (sum - 2)
	}
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}

func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
