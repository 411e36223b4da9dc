package strutil

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestIsMissing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"", true},
		{"   ", true},
		{"NaN", true},
		{"nan", true},
		{"null", true},
		{"None", true},
		{"0", false},
		{"sony", false},
		{" nan trailing", false},
	} {
		if got := IsMissing(tc.in); got != tc.want {
			t.Errorf("IsMissing(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"  Sony   BRAVIA  ", "sony bravia"},
		{"a\tb\nc", "a b c"},
		{"", ""},
		{"UPPER", "upper"},
		{"dav-is50 / b", "dav-is50 / b"},
	} {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeAndJoin(t *testing.T) {
	toks := Tokenize("  Sony  Bravia theater ")
	if len(toks) != 3 || toks[0] != "sony" || toks[2] != "theater" {
		t.Fatalf("Tokenize = %v", toks)
	}
	if got := JoinTokens(toks); got != "sony bravia theater" {
		t.Errorf("JoinTokens = %q", got)
	}
	if Tokenize("NaN") != nil {
		t.Error("Tokenize(NaN) should be nil")
	}
	if JoinTokens(nil) != NaN {
		t.Error("JoinTokens(nil) should be NaN")
	}
}

func TestJaccard(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want float64
	}{
		{"a b c", "a b c", 1},
		{"a b", "c d", 0},
		{"a b c d", "a b", 0.5},
		{"NaN", "NaN", 1},
		{"NaN", "a", 0},
		{"a", "NaN", 0},
	} {
		if got := Jaccard(tc.a, tc.b); !almostEq(got, tc.want) {
			t.Errorf("Jaccard(%q,%q) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	// Symmetry and range on arbitrary inputs.
	f := func(a, b string) bool {
		x, y := Jaccard(a, b), Jaccard(b, a)
		return almostEq(x, y) && x >= 0 && x <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Identity.
	g := func(a string) bool {
		return almostEq(Jaccard(a, a), 1)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlapCoefficient(t *testing.T) {
	if got := OverlapCoefficient("a b", "a b c d"); !almostEq(got, 1) {
		t.Errorf("subset overlap = %v, want 1", got)
	}
	if got := OverlapCoefficient("a x", "a b c d"); !almostEq(got, 0.5) {
		t.Errorf("half overlap = %v, want 0.5", got)
	}
	if got := OverlapCoefficient("NaN", "NaN"); !almostEq(got, 1) {
		t.Errorf("missing-vs-missing = %v", got)
	}
}

func TestLevenshteinDistance(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
	} {
		if got := LevenshteinDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("Lev(%q,%q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	sym := func(a, b string) bool {
		return LevenshteinDistance(a, b) == LevenshteinDistance(b, a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error("symmetry:", err)
	}
	ident := func(a string) bool { return LevenshteinDistance(a, a) == 0 }
	if err := quick.Check(ident, nil); err != nil {
		t.Error("identity:", err)
	}
	// Triangle inequality on short strings (cost guard via config).
	tri := func(a, b, c string) bool {
		if len(a) > 30 || len(b) > 30 || len(c) > 30 {
			return true
		}
		ab := LevenshteinDistance(a, b)
		bc := LevenshteinDistance(b, c)
		ac := LevenshteinDistance(a, c)
		return ac <= ab+bc
	}
	if err := quick.Check(tri, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("triangle:", err)
	}
}

func TestLevenshteinSimilarity(t *testing.T) {
	if got := LevenshteinSimilarity("abc", "abc"); !almostEq(got, 1) {
		t.Errorf("identical = %v", got)
	}
	if got := LevenshteinSimilarity("NaN", "abc"); !almostEq(got, 0) {
		t.Errorf("missing-vs-present = %v", got)
	}
	got := LevenshteinSimilarity("abcd", "abce")
	if !almostEq(got, 0.75) {
		t.Errorf("one edit of four = %v, want 0.75", got)
	}
}

func TestNGrams(t *testing.T) {
	grams := NGrams("abcd", 3)
	if len(grams) != 2 || grams[0] != "abc" || grams[1] != "bcd" {
		t.Errorf("NGrams = %v", grams)
	}
	if g := NGrams("ab", 3); len(g) != 1 || g[0] != "ab" {
		t.Errorf("short NGrams = %v", g)
	}
	if NGrams("", 3) != nil {
		t.Error("empty NGrams should be nil")
	}
	if NGrams("abc", 0) != nil {
		t.Error("n=0 NGrams should be nil")
	}
}

func TestTrigramJaccard(t *testing.T) {
	if got := TrigramJaccard("sony bravia", "sony bravia"); !almostEq(got, 1) {
		t.Errorf("identical = %v", got)
	}
	// A single typo should retain high trigram similarity.
	got := TrigramJaccard("television", "televsion")
	if got < 0.4 {
		t.Errorf("typo trigram sim = %v, want fairly high", got)
	}
	if tok := Jaccard("television", "televsion"); tok != 0 {
		t.Errorf("token jaccard of typo pair = %v, want 0 (motivates trigram)", tok)
	}
}

func TestContainmentSimilarity(t *testing.T) {
	if got := ContainmentSimilarity("sony bravia", "sony bravia theater black micro"); !almostEq(got, 1) {
		t.Errorf("contained = %v, want 1", got)
	}
	if got := ContainmentSimilarity("a b", "c d"); !almostEq(got, 0) {
		t.Errorf("disjoint = %v, want 0", got)
	}
	// Duplicate tokens must not double count.
	if got := ContainmentSimilarity("a a", "a b c"); !almostEq(got, 0.5) {
		t.Errorf("dup tokens = %v, want 0.5", got)
	}
}

func TestNumericTokens(t *testing.T) {
	got := NumericTokens("sony kdl-19m4000 19 ' lcd tv $379.72 model 4000")
	want := []string{"19", "$379.72", "4000"}
	if len(got) != len(want) {
		t.Fatalf("NumericTokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NumericTokens[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNumberOverlap(t *testing.T) {
	if got := NumberOverlap("tv 4000", "tv model 4000"); !almostEq(got, 1) {
		t.Errorf("same numbers = %v", got)
	}
	if got := NumberOverlap("tv 4000", "tv 5000"); !almostEq(got, 0) {
		t.Errorf("different numbers = %v", got)
	}
	if got := NumberOverlap("no numbers", "none here"); !almostEq(got, 1) {
		t.Errorf("no numbers = %v, want neutral 1", got)
	}
}

// DropFirstTokens removes the first k tokens (the paper's "drop first-k"
// augmentation operator). The triangle scan slices its own token list
// instead (TestDropTokensSliceTokenList); this is the reference.
func DropFirstTokens(s string, k int) string {
	toks := Tokenize(s)
	if k < 0 {
		k = 0
	}
	if k >= len(toks) {
		return NaN
	}
	return JoinTokens(toks[k:])
}

// DropLastTokens removes the last k tokens (the paper's "drop last-k"
// augmentation operator); the reference like DropFirstTokens.
func DropLastTokens(s string, k int) string {
	toks := Tokenize(s)
	if k < 0 {
		k = 0
	}
	if k >= len(toks) {
		return NaN
	}
	return JoinTokens(toks[:len(toks)-k])
}

// randomValue draws a value of up to seven words, with runs of spaces,
// missing-value tokens, unicode and a word holding a tab.
func randomValue(rng *rand.Rand) string {
	words := []string{"NaN", "nan", "Sony", "DSC-W55", "é", "ÉTÉ", "日本", "a", "4000", "x\ty", "  ", "\u00a0"}
	var b strings.Builder
	for w := rng.Intn(7); w >= 0; w-- {
		b.WriteString(strings.Repeat(" ", rng.Intn(3)))
		b.WriteString(words[rng.Intn(len(words))])
	}
	return b.String()
}

// TestDropTokensSliceTokenList gates the tokenize-once form of the
// augmentation operators: for 1 <= k < n, slicing one Tokenize result
// and joining equals the drop operators, which re-tokenize per k.
func TestDropTokensSliceTokenList(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		v := randomValue(rng)
		toks := Tokenize(v)
		n := len(toks)
		for k := 1; k < n; k++ {
			if got, want := JoinTokens(toks[k:]), DropFirstTokens(v, k); got != want {
				t.Fatalf("%q first k=%d: sliced %q, DropFirstTokens %q", v, k, got, want)
			}
			if got, want := JoinTokens(toks[:n-k]), DropLastTokens(v, k); got != want {
				t.Fatalf("%q last k=%d: sliced %q, DropLastTokens %q", v, k, got, want)
			}
		}
	}
}

// TestTokenDrops pins TokenDrops' order against the token list: entry
// 2(k-1) drops the first k tokens and entry 2(k-1)+1 the last k, for
// k = 1..n-1, and a value with fewer than two tokens (missing values
// included) has no variant.
func TestTokenDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	short := 0
	for trial := 0; trial < 2000; trial++ {
		v := randomValue(rng)
		toks := Tokenize(v)
		n := len(toks)
		drops := TokenDrops(v)
		if n < 2 {
			short++
			if drops != nil {
				t.Fatalf("%q has %d tokens but variants %q", v, n, drops)
			}
			continue
		}
		if len(drops) != 2*(n-1) {
			t.Fatalf("%q: %d variants, want %d", v, len(drops), 2*(n-1))
		}
		for k := 1; k < n; k++ {
			if got, want := drops[2*(k-1)], JoinTokens(toks[k:]); got != want {
				t.Fatalf("%q first k=%d: %q, want %q", v, k, got, want)
			}
			if got, want := drops[2*(k-1)+1], JoinTokens(toks[:n-k]); got != want {
				t.Fatalf("%q last k=%d: %q, want %q", v, k, got, want)
			}
		}
	}
	if short == 0 {
		t.Fatal("no missing or one-token value drawn")
	}
	for _, v := range []string{"", "NaN", "  ", "sony"} {
		if drops := TokenDrops(v); drops != nil {
			t.Errorf("TokenDrops(%q) = %q, want none", v, drops)
		}
	}
}

func TestDropTokens(t *testing.T) {
	s := "a b c d"
	if got := DropFirstTokens(s, 1); got != "b c d" {
		t.Errorf("DropFirstTokens = %q", got)
	}
	if got := DropLastTokens(s, 2); got != "a b" {
		t.Errorf("DropLastTokens = %q", got)
	}
	if got := DropFirstTokens(s, 4); got != NaN {
		t.Errorf("drop all = %q, want NaN", got)
	}
	if got := DropLastTokens(s, 99); got != NaN {
		t.Errorf("drop beyond = %q, want NaN", got)
	}
	if got := PrefixTokens(s, 2); got != "a b" {
		t.Errorf("PrefixTokens = %q", got)
	}
	if got := SuffixTokens(s, 3); got != "b c d" {
		t.Errorf("SuffixTokens = %q", got)
	}
}

func TestDropTokensProperty(t *testing.T) {
	// Dropping first k then counting equals max(n-k, 0) tokens, and the
	// result is always a suffix of the original token stream.
	f := func(raw string, k uint8) bool {
		toks := Tokenize(raw)
		kk := int(k % 8)
		out := DropFirstTokens(raw, kk)
		outToks := Tokenize(out)
		wantLen := len(toks) - kk
		if wantLen < 0 {
			wantLen = 0
		}
		if len(outToks) != wantLen {
			return false
		}
		return strings.HasSuffix(JoinTokens(toks), JoinTokens(outToks)) || wantLen == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctTokens(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"beta alpha beta ALPHA", []string{"alpha", "beta"}},
		{"NaN", nil},
		{"", nil},
		{"one", []string{"one"}},
	}
	for _, c := range cases {
		got := DistinctTokens(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("DistinctTokens(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("DistinctTokens(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestDistinctTokensMatchesTokenSet(t *testing.T) {
	// DistinctTokens is exactly TokenSet's contents in sorted order.
	f := func(raw string) bool {
		set := TokenSet(raw)
		toks := DistinctTokens(raw)
		if len(toks) != len(set) {
			return false
		}
		for i, tok := range toks {
			if _, ok := set[tok]; !ok {
				return false
			}
			if i > 0 && toks[i-1] >= tok {
				return false // unsorted or duplicated
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetJaccardMatchesJaccard(t *testing.T) {
	// On non-missing inputs, SetJaccard over TokenSet equals Jaccard on
	// the raw strings.
	pairs := [][2]string{
		{"alpha beta", "beta gamma"},
		{"a b c", "a b c"},
		{"x", "y"},
		{"", ""},
		{"alpha", ""},
	}
	for _, p := range pairs {
		got := SetJaccard(TokenSet(p[0]), TokenSet(p[1]))
		var want float64
		if IsMissing(p[0]) || IsMissing(p[1]) {
			// Jaccard short-circuits on missing values; SetJaccard sees
			// only the (empty) sets. Compare against the set semantics.
			if len(TokenSet(p[0])) == 0 && len(TokenSet(p[1])) == 0 {
				want = 1
			}
			if got != want {
				t.Errorf("SetJaccard(%q, %q) = %v, want %v", p[0], p[1], got, want)
			}
			continue
		}
		want = Jaccard(p[0], p[1])
		if got != want {
			t.Errorf("SetJaccard(%q, %q) = %v, want Jaccard %v", p[0], p[1], got, want)
		}
	}
}
