package embedding

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenDeterministicAndUnit(t *testing.T) {
	e := New(32)
	a := e.Token("bravia")
	b := e.Token("bravia")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Token embedding not deterministic")
		}
	}
	var norm float64
	for _, v := range a {
		norm += v * v
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Errorf("Token embedding norm = %v, want 1", math.Sqrt(norm))
	}
}

func TestDifferentTokensDiffer(t *testing.T) {
	e := New(32)
	if Cosine(e.Token("sony"), e.Token("panasonic")) > 0.9 {
		t.Error("unrelated tokens should not be near-identical")
	}
}

func TestTypoTokensAreClose(t *testing.T) {
	e := New(48)
	// Trigram blending should make typo variants closer than unrelated
	// tokens.
	typoSim := Cosine(e.Token("television"), e.Token("televsion"))
	unrelSim := Cosine(e.Token("television"), e.Token("keyboard"))
	if typoSim <= unrelSim {
		t.Errorf("typo sim %v should exceed unrelated sim %v", typoSim, unrelSim)
	}
	if typoSim < 0.3 {
		t.Errorf("typo sim %v too low for fastText-like behaviour", typoSim)
	}
}

func TestTextEmbedding(t *testing.T) {
	e := New(32)
	v := e.Text("sony bravia theater")
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Errorf("Text norm = %v", norm)
	}
	// Missing text embeds to zero.
	z := e.Text("NaN")
	for _, x := range z {
		if x != 0 {
			t.Fatal("missing text should embed to zero vector")
		}
	}
	if Cosine(v, z) != 0 {
		t.Error("cosine with zero vector should be 0")
	}
}

func TestSharedTokensRaiseSimilarity(t *testing.T) {
	e := New(32)
	a := e.Text("sony bravia theater system")
	b := e.Text("sony bravia home theater")
	c := e.Text("canon pixma printer ink")
	if Cosine(a, b) <= Cosine(a, c) {
		t.Errorf("overlapping texts %v should beat disjoint %v", Cosine(a, b), Cosine(a, c))
	}
}

func TestIDFFit(t *testing.T) {
	e := New(16)
	corpus := []string{
		"sony bravia with hdmi", "panasonic viera with hdmi",
		"canon camera with zoom", "nikon camera with flash",
	}
	e.Fit(corpus)
	// "with" occurs in all docs, "bravia" in one: IDF(bravia) > IDF(with).
	if e.IDF("bravia") <= e.IDF("with") {
		t.Errorf("IDF(bravia)=%v should exceed IDF(with)=%v", e.IDF("bravia"), e.IDF("with"))
	}
	// Unknown tokens get the maximum weight.
	if e.IDF("zzz-unknown") < e.IDF("bravia") {
		t.Error("unknown tokens should be treated as rare")
	}
}

func TestIDFUnfitted(t *testing.T) {
	e := New(8)
	if e.IDF("anything") != 1 {
		t.Error("unfit embedder should return neutral IDF")
	}
}

func TestFitEmptyCorpus(t *testing.T) {
	e := New(8)
	e.Fit(nil)
	if e.IDF("x") != 1 {
		t.Error("empty corpus fit should leave IDF neutral")
	}
}

func TestNewPanicsOnBadDim(t *testing.T) {
	for _, dim := range []int{0, maxDim + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", dim)
				}
			}()
			New(dim)
		}()
	}
}

// TestTextWithMatchesText: TextWith over a memo of Token is Text bit
// for bit, and asks the memo once per token occurrence.
func TestTextWithMatchesText(t *testing.T) {
	e := New(24)
	e.Fit([]string{"apple pie with cream", "apple tart", "cream soda"})
	memo := map[string][]float64{}
	calls := 0
	token := func(tok string) []float64 {
		calls++
		if v, ok := memo[tok]; ok {
			return v
		}
		v := e.Token(tok)
		memo[tok] = v
		return v
	}
	for _, s := range []string{"apple pie", "Apple  PIE with cream", "", "NaN", "zebra 42 apple"} {
		if got, want := e.TextWith(s, token), e.Text(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("TextWith(%q) = %v, want %v", s, got, want)
		}
	}
	if calls != 2+4+3 {
		t.Fatalf("token called %d times, want one per token occurrence (9)", calls)
	}
}

func TestCosineProperties(t *testing.T) {
	e := New(24)
	f := func(a, b string) bool {
		va, vb := e.Text(a), e.Text(b)
		c := Cosine(va, vb)
		return c >= -1.0000001 && c <= 1.0000001 &&
			math.Abs(Cosine(va, vb)-Cosine(vb, va)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	g := func(a string) bool {
		v := e.Text(a)
		c := Cosine(v, v)
		// Self-similarity is 1 unless the vector is zero.
		var n float64
		for _, x := range v {
			n += x * x
		}
		if n == 0 {
			return c == 0
		}
		return math.Abs(c-1) < 1e-9
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTextEmbedding(b *testing.B) {
	e := New(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Text("sony bravia theater black micro system davis50b 5.1-channel surround")
	}
}

// TestCosineZeroVectors pins the zero-norm contract.
func TestCosineZeroVectors(t *testing.T) {
	z := make([]float64, 8)
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := Cosine(z, v); got != 0 {
		t.Fatalf("Cosine(0, v) = %v, want 0", got)
	}
	if got := Cosine(v, z); got != 0 {
		t.Fatalf("Cosine(v, 0) = %v, want 0", got)
	}
	if got := Cosine(nil, nil); got != 0 {
		t.Fatalf("Cosine(nil, nil) = %v, want 0", got)
	}
}
