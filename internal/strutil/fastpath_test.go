package strutil

import (
	"math/rand"
	"strings"
	"testing"
)

// fuzzyStrings generates adversarial inputs for the fast-path property
// tests: mixed case, unicode, control bytes, whitespace runs, numbers
// and boundary shapes.
func fuzzyStrings(rng *rand.Rand, n int) []string {
	pieces := []string{
		"", " ", "  ", "\t", "\n", "a", "B", "é", "É", "日本", "ß", "ℵ",
		"x1-2", "$3.99", "1,000", "NaN", "null", "sony", "SONY", "\x01", "\x7f",
		" ", "İ", "ǅ", strings.Repeat("q", 70), strings.Repeat("W ", 40),
	}
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for k := rng.Intn(6); k >= 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		out[i] = b.String()
	}
	return out
}

// TestNormalizeFastPathMatchesReference: Normalize must agree with the
// rune-correct slow path on every input — when the fast path fires it
// returns the input, so this also proves the fast-path predicate only
// accepts already-canonical strings.
func TestNormalizeFastPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range fuzzyStrings(rng, 2000) {
		if got, want := Normalize(s), normalizeSlow(s); got != want {
			t.Fatalf("Normalize(%q) = %q, want %q", s, got, want)
		}
	}
	// Canonical strings must take the allocation-free path.
	for _, s := range []string{"", "abc", "a b c", "sony dcr-trv27 minidv", "$3.99 x1-2"} {
		if !normalizedASCII(s) {
			t.Fatalf("normalizedASCII(%q) = false, want true", s)
		}
	}
	for _, s := range []string{" a", "a ", "a  b", "A", "é", "a\tb", "\x01", "a\x7f"} {
		if normalizedASCII(s) {
			t.Fatalf("normalizedASCII(%q) = true, want false", s)
		}
	}
}

// TestLevenshteinASCIIMatchesReference: the ASCII path must equal the
// rune DP on all-ASCII inputs on both sides of Myers' 64-byte bound,
// which applies to the shorter side after the common prefix and suffix
// are stripped. Cores of 56-71 bytes under a shared prefix and suffix
// put the stripped shorter side on either side of it, over a binary, a
// small and the printable alphabet.
func TestLevenshteinASCIIMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var printable strings.Builder
	for c := byte(' '); c < 0x7f; c++ {
		printable.WriteByte(c)
	}
	for _, alphabet := range []string{"ab", "ab 1-x.", printable.String()} {
		randASCII := func(n int) string {
			var b strings.Builder
			for i := 0; i < n; i++ {
				b.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			return b.String()
		}
		var kernel, dp int
		for trial := 0; trial < 1000; trial++ {
			pre, suf := randASCII(rng.Intn(5)), randASCII(rng.Intn(5))
			a := pre + randASCII(56+rng.Intn(16)) + suf
			b := pre + randASCII(56+rng.Intn(16)) + suf
			if trial%4 == 0 {
				b = randASCII(rng.Intn(90))
			}
			if sa, sb := stripCommon(a, b); min(len(sa), len(sb)) > 64 {
				dp++
			} else {
				kernel++
			}
			if got, want := levenshteinASCII(a, b), levenshteinRunes(a, b); got != want {
				t.Fatalf("levenshteinASCII(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
		if kernel < 100 || dp < 100 {
			t.Fatalf("alphabet %q: %d pairs ran Myers' kernel and %d the DP; want 100 of each", alphabet, kernel, dp)
		}
	}
	// Unicode inputs must still route through the rune DP: "é" is one
	// rune but two bytes, so a byte DP would differ.
	if got := LevenshteinDistance("é", "e"); got != 1 {
		t.Fatalf("LevenshteinDistance(é, e) = %d, want 1", got)
	}
}

// FuzzLevenshteinDistance checks LevenshteinDistance against the rune
// DP on arbitrary strings. The seeds sit on the kernel's edges: cores of
// 63, 64 and 65 bytes once the common prefix and suffix are stripped,
// empty strings, pairs that differ only in a prefix or a suffix, and
// non-ASCII input.
func FuzzLevenshteinDistance(f *testing.F) {
	for _, n := range []int{63, 64, 65} {
		f.Add("pre-"+strings.Repeat("a", n)+"-suf", "pre-"+strings.Repeat("b", n)+"-suf")
		f.Add("pre-"+strings.Repeat("ab", n/2+1)[:n]+"-suf", "pre-"+strings.Repeat("ba", n)+"-suf")
		f.Add(strings.Repeat("a", n), strings.Repeat("b", 2*n))
	}
	f.Add("", "")
	f.Add("", "abc")
	f.Add("abc", "")
	f.Add("xabcdef", "yabcdef")
	f.Add("abcdefx", "abcdefy")
	f.Add("abc", "abcdef")
	f.Add("é", "e")
	f.Add("naïve café", "naive cafe")
	f.Add("日本語", "日本")
	f.Fuzz(func(t *testing.T, a, b string) {
		// The reference DP is quadratic, and the fuzzer minimizes every
		// new input by rerunning it many times; 160 bytes a side keeps
		// both sides of the kernel's 64-byte bound at a fraction of the
		// cost.
		if len(a) > 160 || len(b) > 160 {
			t.Skip()
		}
		want := levenshteinRunes(a, b)
		if got := LevenshteinDistance(a, b); got != want {
			t.Fatalf("LevenshteinDistance(%q, %q) = %d, want %d", a, b, got, want)
		}
		if got := LevenshteinDistance(b, a); got != want {
			t.Fatalf("LevenshteinDistance(%q, %q) = %d, want %d", b, a, got, want)
		}
	})
}

// TestSortedSimsMatchStringSims: the sorted-token similarity functions
// must reproduce the string-based measures bit for bit on non-missing
// inputs, with AppendTokens+SortTokens as the tokenization.
func TestSortedSimsMatchStringSims(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := fuzzyStrings(rng, 400)
	for trial := 0; trial < 400; trial++ {
		a := inputs[rng.Intn(len(inputs))]
		b := inputs[rng.Intn(len(inputs))]
		if IsMissing(a) || IsMissing(b) {
			continue
		}
		ta := AppendTokens(nil, a)
		tb := AppendTokens(nil, b)
		SortTokens(ta)
		SortTokens(tb)
		if got, want := JaccardSortedTokens(ta, tb), Jaccard(a, b); got != want {
			t.Fatalf("JaccardSortedTokens(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := ContainmentSortedTokens(ta, tb), ContainmentSimilarity(a, b); got != want {
			t.Fatalf("ContainmentSortedTokens(%q, %q) = %v, want %v", a, b, got, want)
		}
		if got, want := NumberOverlapSortedTokens(ta, tb), NumberOverlap(a, b); got != want {
			t.Fatalf("NumberOverlapSortedTokens(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
}

// TestCountCoresConstantCases: each count core reports a constant
// similarity as (1, 0) or (0, 0), and Ratio of its counts is the
// string-based measure's float64 in every case: both sides missing, one
// missing, both present but tokenizing to nothing, one such side, no
// numeric token on either side, numeric tokens on one side only, and
// an edit distance of 1 at length 3, where 1-d/m and (m-d)/m differ in
// the last bit.
func TestCountCoresConstantCases(t *testing.T) {
	type counts [2]int
	two := func(n, d int) counts { return counts{n, d} }
	cases := []struct {
		name               string
		a, b               string
		jac, con, num, lev counts
	}{
		{"both missing", "NaN", " null ", counts{1, 0}, counts{1, 0}, counts{1, 0}, counts{1, 0}},
		{"one missing", "NaN", "sony 27", counts{0, 2}, counts{0, 0}, counts{0, 0}, counts{0, 0}},
		{"both empty", "\x01", "\t\x02", counts{1, 0}, counts{1, 0}, counts{1, 0}, counts{1, 0}},
		{"one empty", "\x01", "abc", counts{0, 1}, counts{0, 0}, counts{1, 0}, counts{3, 3}},
		{"no numeric tokens", "abc def", "abd", counts{0, 3}, counts{0, 1}, counts{1, 0}, counts{4, 7}},
		{"numeric tokens on one side", "123 456", "abc", counts{0, 3}, counts{0, 1}, counts{0, 0}, counts{7, 7}},
		{"one edit at length 3", "abc", "abd", counts{0, 2}, counts{0, 1}, counts{1, 0}, counts{1, 3}},
	}
	for _, c := range cases {
		ta, tb := AppendTokens(nil, c.a), AppendTokens(nil, c.b)
		SortTokens(ta)
		SortTokens(tb)
		for _, m := range []struct {
			measure   string
			got, want counts
			ref       float64 // the string-based measure
		}{
			{"Jaccard", two(JaccardSortedCounts(ta, tb)), c.jac, Jaccard(c.a, c.b)},
			{"containment", two(ContainmentSortedCounts(ta, tb)), c.con, ContainmentSimilarity(c.a, c.b)},
			{"number overlap", two(NumberOverlapSortedCounts(ta, tb)), c.num, NumberOverlap(c.a, c.b)},
		} {
			if m.got != m.want {
				t.Errorf("%s: %s counts of (%q, %q) = %v, want %v", c.name, m.measure, c.a, c.b, m.got, m.want)
			}
			if r := Ratio(m.got[0], m.got[1]); r != m.ref {
				t.Errorf("%s: %s of (%q, %q) from counts %v = %v, string-based %v", c.name, m.measure, c.a, c.b, m.got, r, m.ref)
			}
		}
		d, n := LevenshteinCounts(c.a, c.b)
		if got := two(d, n); got != c.lev {
			t.Errorf("%s: LevenshteinCounts(%q, %q) = %v, want %v", c.name, c.a, c.b, got, c.lev)
		}
		want := float64(d)
		if n > 0 {
			want = 1 - float64(d)/float64(n)
		}
		if got := LevenshteinRatio(d, n); got != want || got != LevenshteinSimilarity(c.a, c.b) {
			t.Errorf("%s: LevenshteinRatio(%d, %d) = %v, LevenshteinSimilarity %v, want %v", c.name, d, n, got, LevenshteinSimilarity(c.a, c.b), want)
		}
	}
}

// TestAppendTokensMatchesTokenize: AppendTokens is Tokenize with a
// caller-owned buffer.
func TestAppendTokensMatchesTokenize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	buf := make([]string, 0, 8)
	for _, s := range fuzzyStrings(rng, 1000) {
		buf = AppendTokens(buf[:0], s)
		want := Tokenize(s)
		if len(buf) != len(want) {
			t.Fatalf("AppendTokens(%q) = %q, want %q", s, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("AppendTokens(%q) = %q, want %q", s, buf, want)
			}
		}
	}
}
