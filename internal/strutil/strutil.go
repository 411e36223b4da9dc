// Package strutil provides string and token utilities shared across the
// certa codebase: tokenization, normalization, similarity measures and
// n-gram extraction.
//
// All functions are deterministic and allocation-conscious; they are used
// in the hot path of both the ER matchers and the explanation methods.
package strutil

import (
	"sort"
	"strings"
	"unicode"
)

// NaN is the canonical representation of a missing attribute value, kept
// textual to match the benchmark CSV conventions ("NaN" cells in the
// DeepMatcher datasets).
const NaN = "NaN"

// IsMissing reports whether a raw attribute value denotes a missing value.
func IsMissing(s string) bool {
	switch strings.TrimSpace(s) {
	case "", NaN, "nan", "null", "NULL", "None":
		return true
	}
	return false
}

// Normalize lower-cases s and collapses runs of whitespace into single
// spaces. Punctuation is kept (product names such as "dav-is50 / b" carry
// signal in the benchmarks), but control characters are dropped.
func Normalize(s string) string {
	if normalizedASCII(s) {
		// Already in canonical form: the slow path below would rebuild the
		// identical string byte for byte, so return the input unallocated.
		// Most benchmark values normalize once and then flow through the
		// featurizers repeatedly in canonical form.
		return s
	}
	return normalizeSlow(s)
}

// normalizedASCII reports whether s is already exactly what normalizeSlow
// would produce: lowercase ASCII, no control bytes, single interior
// spaces, no leading or trailing space.
func normalizedASCII(s string) bool {
	prevSpace := true // reject a leading space
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ':
			if prevSpace {
				return false
			}
			prevSpace = true
		case c < 0x21 || c == 0x7f || c >= 0x80 || (c >= 'A' && c <= 'Z'):
			// Control bytes, uppercase, and any non-ASCII byte (which may
			// begin a multi-byte rune needing lowering or collapsing) take
			// the slow path.
			return false
		default:
			prevSpace = false
		}
	}
	return !prevSpace || len(s) == 0 // reject a trailing space
}

// normalizeSlow is the rune-correct reference implementation; the fast
// path above must agree with it on every input
// (TestNormalizeFastPathMatchesReference).
func normalizeSlow(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	space := true // suppress leading spaces
	for _, r := range s {
		switch {
		case unicode.IsSpace(r):
			if !space {
				b.WriteByte(' ')
				space = true
			}
		case unicode.IsControl(r):
			continue
		default:
			b.WriteRune(unicode.ToLower(r))
			space = false
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// Tokenize splits s into whitespace-separated tokens after normalization.
// Missing values tokenize to nil.
func Tokenize(s string) []string {
	if IsMissing(s) {
		return nil
	}
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Fields(n)
}

// JoinTokens is the inverse of Tokenize for round-tripping perturbed
// values back into attribute strings.
func JoinTokens(tokens []string) string {
	if len(tokens) == 0 {
		return NaN
	}
	return strings.Join(tokens, " ")
}

// TokenDrops returns the token-drop variants of v that CERTA's data
// augmentation derives (§3.3): for k = 1..n-1, where n is the number
// of tokens of v, the value without its first k tokens and then the
// value without its last k tokens, each joined like JoinTokens. Every
// variant is a substring of one joined string. A value with fewer than
// two tokens, a missing one included, has none.
func TokenDrops(v string) []string {
	toks := Tokenize(v)
	n := len(toks)
	if n < 2 {
		return nil
	}
	// Tokens are non-empty, hold no space and are joined by single
	// spaces, so token k starts at starts[k] of the joined value, and the
	// first k tokens end one byte before it.
	joined := JoinTokens(toks)
	starts := make([]int, n)
	off := 0
	for i, t := range toks {
		starts[i] = off
		off += len(t) + 1
	}
	out := make([]string, 0, 2*(n-1))
	for k := 1; k < n; k++ {
		out = append(out, joined[starts[k]:], joined[:starts[n-k]-1])
	}
	return out
}

// TokenSet returns the set of distinct tokens of s.
func TokenSet(s string) map[string]struct{} {
	toks := Tokenize(s)
	set := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		set[t] = struct{}{}
	}
	return set
}

// DistinctTokens returns the distinct tokens of s in sorted order: the
// deterministic-iteration counterpart of TokenSet, used by code that
// accumulates floating-point weights per token (inverted-index builds,
// IDF sums) and must not depend on map iteration order.
func DistinctTokens(s string) []string {
	toks := Tokenize(s)
	if len(toks) == 0 {
		return nil
	}
	sort.Strings(toks)
	out := toks[:1]
	for _, t := range toks[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// SetJaccard is Jaccard similarity over pre-built token sets, for
// callers that tokenize once and compare many times. Two empty sets are
// considered identical (similarity 1), matching Jaccard on empty texts.
func SetJaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for t := range a {
		if _, ok := b[t]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Jaccard computes the Jaccard similarity of the token sets of a and b.
// Two missing values are considered identical (similarity 1); a missing
// value against a present one scores 0.
func Jaccard(a, b string) float64 {
	am, bm := IsMissing(a), IsMissing(b)
	if am && bm {
		return 1
	}
	if am || bm {
		return 0
	}
	sa, sb := TokenSet(a), TokenSet(b)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// OverlapCoefficient computes |A∩B| / min(|A|,|B|) over token sets, a
// similarity that is robust to one value being a strict subset of the
// other (common between terse and verbose product titles).
func OverlapCoefficient(a, b string) float64 {
	am, bm := IsMissing(a), IsMissing(b)
	if am && bm {
		return 1
	}
	if am || bm {
		return 0
	}
	sa, sb := TokenSet(a), TokenSet(b)
	if len(sa) == 0 || len(sb) == 0 {
		if len(sa) == len(sb) {
			return 1
		}
		return 0
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	m := len(sa)
	if len(sb) < m {
		m = len(sb)
	}
	return float64(inter) / float64(m)
}

// LevenshteinDistance returns the edit distance between a and b with unit
// costs. All-ASCII inputs whose shorter side is at most 64 bytes once
// their common prefix and suffix are stripped run Myers' bit-vector
// algorithm: a few word operations per byte of the longer side, no
// allocation. The featurize hot path truncates values to 64 bytes, so
// its ASCII values always take that path. Every other input runs the
// rune DP in O(len(a)*len(b)) time. Both return the same integer,
// because ASCII bytes and runes correspond one to one
// (FuzzLevenshteinDistance).
func LevenshteinDistance(a, b string) int {
	if asciiOnly(a) && asciiOnly(b) {
		return levenshteinASCII(a, b)
	}
	return levenshteinRunes(a, b)
}

func asciiOnly(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// levenshteinASCII is the distance between two all-ASCII strings: Myers'
// kernel when the shorter side fits one word, the rune DP otherwise.
func levenshteinASCII(a, b string) int {
	a, b = stripCommon(a, b)
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(b) > 64 {
		return levenshteinRunes(a, b)
	}
	return myers64(b, a)
}

// stripCommon cuts the longest common prefix and then the longest
// common suffix of a and b. A shared prefix or suffix never participates
// in an optimal unit-cost edit script, so stripping it is exact and
// shortens the work for the near-identical strings perturbation
// workloads compare.
func stripCommon(a, b string) (string, string) {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	return a, b
}

// myers64 is the edit distance between pattern p (1 to 64 ASCII bytes)
// and text t, by Myers' bit-vector algorithm in Hyyrö's form for global
// edit distance (Myers 1999; Hyyrö 2003). Bit i of the column vectors
// holds the vertical delta D[i+1][j] - D[i][j] of the DP over p's rows
// and t's columns: Pv marks +1, Mv marks -1, and 0 is neither. Each text
// byte advances a whole column in a few word operations, and score
// follows the last row, D[len(p)][j]. Bits above len(p) carry garbage
// that only moves upward (additions and left shifts), so it never
// reaches the row that is read.
func myers64(p, t string) int {
	var peq [128]uint64 // peq[c] has bit i set where p[i] == c
	for i := 0; i < len(p); i++ {
		peq[p[i]&0x7f] |= 1 << i
	}
	last := uint64(1) << (len(p) - 1)
	pv, mv := ^uint64(0), uint64(0) // column 0: D[i][0] = i
	score := len(p)
	for j := 0; j < len(t); j++ {
		eq := peq[t[j]&0x7f]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		// Row 0 is D[0][j] = j, so every horizontal delta entering the
		// column from above is +1: that is the shifted-in 1 of ph.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// levenshteinRunes is the rune-correct reference implementation.
func levenshteinRunes(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSimilarity maps edit distance into [0,1]:
// 1 - dist/max(len). Missing-vs-missing is 1, missing-vs-present is 0.
func LevenshteinSimilarity(a, b string) float64 {
	return LevenshteinRatio(LevenshteinCounts(a, b))
}

// LevenshteinCounts returns the two integers LevenshteinSimilarity is
// made of: the edit distance d between the normalized a and b and the
// longer one's rune length m. The constant cases have m = 0: (1, 0)
// when both are missing or both normalize to nothing, (0, 0) when
// exactly one is missing.
func LevenshteinCounts(a, b string) (d, m int) {
	am, bm := IsMissing(a), IsMissing(b)
	if am && bm {
		return 1, 0
	}
	if am || bm {
		return 0, 0
	}
	na, nb := Normalize(a), Normalize(b)
	m = max(len([]rune(na)), len([]rune(nb)))
	if m == 0 {
		return 1, 0
	}
	return LevenshteinDistance(na, nb), m
}

// LevenshteinRatio is LevenshteinSimilarity from its counts: 1 - d/m,
// or d itself when m is 0.
func LevenshteinRatio(d, m int) float64 {
	if m == 0 {
		return float64(d)
	}
	return 1 - float64(d)/float64(m)
}

// NGrams returns the character n-grams of the normalized input. Values
// shorter than n yield a single gram with the whole string.
func NGrams(s string, n int) []string {
	if n <= 0 {
		return nil
	}
	norm := Normalize(s)
	runes := []rune(norm)
	if len(runes) == 0 {
		return nil
	}
	if len(runes) <= n {
		return []string{string(runes)}
	}
	grams := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+n]))
	}
	return grams
}

// TrigramJaccard is the Jaccard similarity of 3-gram sets, a softer
// measure than token Jaccard that tolerates typos.
func TrigramJaccard(a, b string) float64 {
	am, bm := IsMissing(a), IsMissing(b)
	if am && bm {
		return 1
	}
	if am || bm {
		return 0
	}
	ga, gb := NGrams(a, 3), NGrams(b, 3)
	sa := make(map[string]struct{}, len(ga))
	for _, g := range ga {
		sa[g] = struct{}{}
	}
	sb := make(map[string]struct{}, len(gb))
	for _, g := range gb {
		sb[g] = struct{}{}
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for g := range sa {
		if _, ok := sb[g]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// ContainmentSimilarity measures how much of the shorter token sequence
// is contained (as tokens, order-free) in the longer one.
func ContainmentSimilarity(a, b string) float64 {
	ta, tb := Tokenize(a), Tokenize(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	short, long := ta, tb
	if len(tb) < len(ta) {
		short, long = tb, ta
	}
	set := make(map[string]int, len(long))
	for _, t := range long {
		set[t]++
	}
	hit := 0
	for _, t := range short {
		if set[t] > 0 {
			set[t]--
			hit++
		}
	}
	return float64(hit) / float64(len(short))
}

// NumericTokens extracts tokens that parse as plain numbers (model
// numbers, prices, years). Used by the Ditto-style matcher for its
// "domain knowledge injection".
func NumericTokens(s string) []string {
	var out []string
	for _, t := range Tokenize(s) {
		if isNumericToken(t) {
			out = append(out, t)
		}
	}
	return out
}

func isNumericToken(t string) bool {
	digits := 0
	for _, r := range t {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '.' || r == ',' || r == '$':
		default:
			return false
		}
	}
	return digits > 0
}

// NumberOverlap computes Jaccard similarity restricted to numeric tokens,
// which carry disproportionate signal for product matching (model numbers
// and prices).
func NumberOverlap(a, b string) float64 {
	na, nb := NumericTokens(a), NumericTokens(b)
	if len(na) == 0 && len(nb) == 0 {
		return 1
	}
	if len(na) == 0 || len(nb) == 0 {
		return 0
	}
	sa := make(map[string]struct{}, len(na))
	for _, t := range na {
		sa[t] = struct{}{}
	}
	sb := make(map[string]struct{}, len(nb))
	for _, t := range nb {
		sb[t] = struct{}{}
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}
