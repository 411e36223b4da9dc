package strutil

import "sort"

// The *SortedTokens functions compute the attribute-block similarities
// from pre-tokenized, pre-sorted token slices, so a hot caller (the
// DeepMatcher featurizer) tokenizes and sorts each value once and shares
// the work across Jaccard, containment and number overlap instead of
// re-tokenizing per measure. Each is Ratio over its *SortedCounts core,
// which returns the measure's numerator and denominator, so a caller
// that keeps the two integers gets back exactly the float64. Every
// function reduces to the same integer intersection/union counts as its
// string-based counterpart, and a ratio of equal integers is the same
// float64 — the results are bit-identical
// (TestSortedSimsMatchStringSims).
//
// Inputs are the full token slices (duplicates included), sorted
// ascending; the distinct-set measures deduplicate during their merge
// walk. Passing unsorted slices silently computes the wrong answer —
// callers own the sort.Strings call.

// AppendTokens appends the tokens of s to dst and returns the extended
// slice: Tokenize for callers that pool their token buffers. Missing
// values append nothing.
func AppendTokens(dst []string, s string) []string {
	if IsMissing(s) {
		return dst
	}
	n := Normalize(s)
	// Normalize emits single ASCII spaces only, so a byte scan splits
	// exactly like strings.Fields; tokens are substrings of n (no
	// per-token allocation).
	start := -1
	for i := 0; i < len(n); i++ {
		if n[i] == ' ' {
			if start >= 0 {
				dst = append(dst, n[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, n[start:])
	}
	return dst
}

// SortTokens sorts a token slice in place — the explicit counterpart of
// the ordering contract above.
func SortTokens(toks []string) { sort.Strings(toks) }

// Ratio is a count-based similarity from its numerator n and
// denominator d: n/d, or n itself when d is 0, which is how the
// *SortedCounts cores report a constant similarity of 1 or 0.
func Ratio(n, d int) float64 {
	if d == 0 {
		return float64(n)
	}
	return float64(n) / float64(d)
}

// JaccardSortedTokens is Jaccard over the distinct-token sets of two
// sorted token slices. Matches Jaccard(a, b) for non-missing inputs
// whose token slices these are.
func JaccardSortedTokens(a, b []string) float64 { return Ratio(JaccardSortedCounts(a, b)) }

// JaccardSortedCounts returns the shared and the union count of the
// distinct tokens of two sorted token slices, or (1, 0) when both are
// empty.
func JaccardSortedCounts(a, b []string) (n, d int) {
	da, db, inter := 0, 0, 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			t := a[i]
			inter++
			da++
			db++
			for i < len(a) && a[i] == t {
				i++
			}
			for j < len(b) && b[j] == t {
				j++
			}
		case a[i] < b[j]:
			t := a[i]
			da++
			for i < len(a) && a[i] == t {
				i++
			}
		default:
			t := b[j]
			db++
			for j < len(b) && b[j] == t {
				j++
			}
		}
	}
	for i < len(a) {
		t := a[i]
		da++
		for i < len(a) && a[i] == t {
			i++
		}
	}
	for j < len(b) {
		t := b[j]
		db++
		for j < len(b) && b[j] == t {
			j++
		}
	}
	union := da + db - inter
	if union == 0 {
		return 1, 0
	}
	return inter, union
}

// ContainmentSortedTokens mirrors ContainmentSimilarity: the multiset
// intersection over the shorter slice's length. The shorter side is
// chosen exactly as the string version chooses it (ties keep a).
func ContainmentSortedTokens(a, b []string) float64 { return Ratio(ContainmentSortedCounts(a, b)) }

// ContainmentSortedCounts returns the multiset intersection and the
// shorter slice's length, (1, 0) when both slices are empty and (0, 0)
// when one is.
func ContainmentSortedCounts(a, b []string) (n, d int) {
	if len(a) == 0 && len(b) == 0 {
		return 1, 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 0, 0
	}
	short, long := a, b
	if len(b) < len(a) {
		short, long = b, a
	}
	// Multiset intersection Σ_t min(count_short, count_long) via merge.
	hit := 0
	i, j := 0, 0
	for i < len(short) && j < len(long) {
		switch {
		case short[i] == long[j]:
			hit++
			i++
			j++
		case short[i] < long[j]:
			i++
		default:
			j++
		}
	}
	return hit, len(short)
}

// NumberOverlapSortedTokens mirrors NumberOverlap: Jaccard over the
// distinct numeric tokens of each slice.
func NumberOverlapSortedTokens(a, b []string) float64 {
	return Ratio(NumberOverlapSortedCounts(a, b))
}

// NumberOverlapSortedCounts returns the shared and the union count of
// the distinct numeric tokens of two sorted token slices, (1, 0) when
// neither has one and (0, 0) when only one has.
func NumberOverlapSortedCounts(a, b []string) (n, d int) {
	da, db, inter := 0, 0, 0
	i, j := nextNumeric(a, 0), nextNumeric(b, 0)
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			t := a[i]
			inter++
			da++
			db++
			for i < len(a) && a[i] == t {
				i++
			}
			for j < len(b) && b[j] == t {
				j++
			}
		case a[i] < b[j]:
			t := a[i]
			da++
			for i < len(a) && a[i] == t {
				i++
			}
		default:
			t := b[j]
			db++
			for j < len(b) && b[j] == t {
				j++
			}
		}
		i, j = nextNumeric(a, i), nextNumeric(b, j)
	}
	for i < len(a) {
		t := a[i]
		da++
		for i < len(a) && a[i] == t {
			i++
		}
		i = nextNumeric(a, i)
	}
	for j < len(b) {
		t := b[j]
		db++
		for j < len(b) && b[j] == t {
			j++
		}
		j = nextNumeric(b, j)
	}
	if da == 0 && db == 0 {
		return 1, 0
	}
	if da == 0 || db == 0 {
		return 0, 0
	}
	return inter, da + db - inter
}

func nextNumeric(s []string, k int) int {
	for k < len(s) && !isNumericToken(s[k]) {
		k++
	}
	return k
}
