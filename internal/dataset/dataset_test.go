package dataset

import (
	"testing"
	"testing/quick"

	"certa/internal/strutil"
)

func TestRegistryComplete(t *testing.T) {
	codes := Codes()
	if len(codes) != 12 {
		t.Fatalf("expected 12 benchmarks, got %d: %v", len(codes), codes)
	}
	want := map[string]int{ // attribute counts from Table 1
		"AB": 3, "AG": 3, "BA": 4, "DA": 4, "DS": 4, "FZ": 6,
		"IA": 8, "WA": 5, "DDA": 4, "DDS": 4, "DIA": 8, "DWA": 5,
	}
	for code, attrs := range want {
		s, ok := Get(code)
		if !ok {
			t.Errorf("missing benchmark %s", code)
			continue
		}
		if len(s.Attrs) != attrs {
			t.Errorf("%s: %d attributes, want %d", code, len(s.Attrs), attrs)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("unknown code should not resolve")
	}
}

func TestDirtyFlags(t *testing.T) {
	for _, code := range []string{"DDA", "DDS", "DIA", "DWA"} {
		if s := MustGet(code); !s.Dirty {
			t.Errorf("%s should be dirty", code)
		}
	}
	for _, code := range []string{"AB", "DA", "IA", "WA"} {
		if s := MustGet(code); s.Dirty {
			t.Errorf("%s should not be dirty", code)
		}
	}
}

func TestGenerateSmallBenchmark(t *testing.T) {
	b := MustGenerate("AB", Options{Seed: 1, MaxRecords: 80, MaxMatches: 40})
	if b.Left.Len() != 80 {
		t.Errorf("left size = %d, want 80", b.Left.Len())
	}
	if b.Right.Len() == 0 || b.Right.Len() > 240 {
		t.Errorf("right size = %d out of range", b.Right.Len())
	}
	if len(b.Matches) != 40 {
		t.Errorf("matches = %d, want 40", len(b.Matches))
	}
	// Ground truth is consistent.
	for _, m := range b.Matches {
		if !b.IsMatch(m.Left.ID, m.Right.ID) {
			t.Fatalf("match %s not in matchKeys", m.Key())
		}
	}
	// Pairs are labeled correctly.
	for _, p := range b.Pairs {
		if p.Match != b.IsMatch(p.Left.ID, p.Right.ID) {
			t.Fatalf("pair %s label mismatch", p.Key())
		}
	}
	// Splits partition the pool.
	if len(b.Train)+len(b.Valid)+len(b.Test) != len(b.Pairs) {
		t.Error("splits do not partition the pool")
	}
	if len(b.Train) == 0 || len(b.Valid) == 0 || len(b.Test) == 0 {
		t.Error("empty split")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{Seed: 7, MaxRecords: 60, MaxMatches: 25}
	a := MustGenerate("WA", opts)
	b := MustGenerate("WA", opts)
	if a.Left.Len() != b.Left.Len() || a.Right.Len() != b.Right.Len() {
		t.Fatal("sizes differ across runs")
	}
	for i, r := range a.Left.Records {
		if !r.Equal(b.Left.Records[i]) {
			t.Fatalf("left record %d differs:\n%v\n%v", i, r, b.Left.Records[i])
		}
	}
	for i, r := range a.Right.Records {
		if !r.Equal(b.Right.Records[i]) {
			t.Fatalf("right record %d differs", i)
		}
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Fatal("pair pools differ")
	}
	for i := range a.Pairs {
		if a.Pairs[i].Key() != b.Pairs[i].Key() || a.Pairs[i].Match != b.Pairs[i].Match {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := MustGenerate("AB", Options{Seed: 1, MaxRecords: 50, MaxMatches: 20})
	b := MustGenerate("AB", Options{Seed: 2, MaxRecords: 50, MaxMatches: 20})
	same := true
	for i := range a.Left.Records {
		if !a.Left.Records[i].Equal(b.Left.Records[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different data")
	}
}

func TestGenerateAllBenchmarks(t *testing.T) {
	for _, code := range Codes() {
		b := MustGenerate(code, Options{Seed: 3, MaxRecords: 60, MaxMatches: 25})
		if b.Left.Len() == 0 || b.Right.Len() == 0 {
			t.Errorf("%s: empty source", code)
		}
		if len(b.Matches) == 0 {
			t.Errorf("%s: no matches", code)
		}
		spec := MustGet(code)
		if b.Left.Schema.Len() != len(spec.Attrs) {
			t.Errorf("%s: schema width %d, want %d", code, b.Left.Schema.Len(), len(spec.Attrs))
		}
		// Matching pairs must share tokens (otherwise no model can learn).
		overlapped := 0
		for _, m := range b.Matches {
			sim := strutil.Jaccard(m.Left.Text(), m.Right.Text())
			if sim > 0.05 {
				overlapped++
			}
		}
		if overlapped < len(b.Matches)/2 {
			t.Errorf("%s: only %d/%d matches share tokens", code, overlapped, len(b.Matches))
		}
	}
}

func TestGenerateUnknownCode(t *testing.T) {
	if _, err := Generate("XX", Options{}); err == nil {
		t.Error("unknown code should error")
	}
}

func TestDirtyDatasetsDisplaceValues(t *testing.T) {
	clean := MustGenerate("DA", Options{Seed: 5, MaxRecords: 100, MaxMatches: 50})
	dirty := MustGenerate("DDA", Options{Seed: 5, MaxRecords: 100, MaxMatches: 50})
	countNaN := func(b *Benchmark) int {
		n := 0
		for _, r := range b.Left.Records {
			for _, v := range r.Values {
				if strutil.IsMissing(v) {
					n++
				}
			}
		}
		return n
	}
	if countNaN(dirty) <= countNaN(clean) {
		t.Error("dirty variant should blank more attribute values (displacement)")
	}
	// Titles in the dirty variant should be longer on average (values
	// folded into them).
	avgTitleLen := func(b *Benchmark) float64 {
		total := 0
		for _, r := range b.Left.Records {
			total += len(strutil.Tokenize(r.Value("title")))
		}
		return float64(total) / float64(b.Left.Len())
	}
	if avgTitleLen(dirty) <= avgTitleLen(clean) {
		t.Error("dirty titles should absorb displaced values")
	}
}

func TestMultiplicityStructure(t *testing.T) {
	// DDS has many more matches than left records at paper scale; at
	// reduced scale with MaxMatches > MaxRecords the generator must
	// produce right-side duplicates.
	b := MustGenerate("DDS", Options{Seed: 9, MaxRecords: 40, MaxMatches: 120})
	if len(b.Matches) != 120 {
		t.Fatalf("matches = %d, want 120", len(b.Matches))
	}
	perLeft := map[string]int{}
	for _, m := range b.Matches {
		perLeft[m.Left.ID]++
	}
	multi := 0
	for _, c := range perLeft {
		if c > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("expected some left records with multiple right matches")
	}
}

func TestStats(t *testing.T) {
	b := MustGenerate("FZ", Options{Seed: 2, MaxRecords: 80, MaxMatches: 30})
	s := b.Stats()
	if s.Code != "FZ" || s.Attrs != 6 {
		t.Errorf("stats header wrong: %+v", s)
	}
	if s.LeftRecords != b.Left.Len() || s.RightRecords != b.Right.Len() {
		t.Error("stats record counts wrong")
	}
	if s.LeftDistinct <= 0 || s.RightDistinct <= 0 {
		t.Error("distinct value counts should be positive")
	}
	if s.Matches != len(b.Matches) {
		t.Error("stats matches wrong")
	}
}

func TestFigure1(t *testing.T) {
	abt, buy := Figure1()
	if abt.Len() != 3 || buy.Len() != 3 {
		t.Fatal("Figure 1 should have 3 records per source")
	}
	u1, ok := abt.Get("u1")
	if !ok || u1.Value("name") != "sony bravia theater black micro system davis50b" {
		t.Errorf("u1 = %v", u1)
	}
	v3, _ := buy.Get("v3")
	if v3.Value("price") != "379.72" {
		t.Errorf("v3 price = %q", v3.Value("price"))
	}
	pairs := Figure1Pairs()
	if len(pairs) != 3 {
		t.Fatal("expected 3 pairs")
	}
	for _, p := range pairs {
		if !p.Match {
			t.Error("all Figure 1 pairs are matches")
		}
	}
	if pairs[0].Left.ID != "u1" || pairs[0].Right.ID != "v1" {
		t.Error("pair ordering wrong")
	}
}

func TestNoiserDeterministicProperty(t *testing.T) {
	// The dirty displacement must preserve the multiset of non-missing
	// token content (tokens are moved, never destroyed).
	f := func(seed int64) bool {
		b := MustGenerate("DDA", Options{Seed: seed % 1000, MaxRecords: 30, MaxMatches: 10})
		for _, r := range b.Left.Records {
			if len(r.Values) != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestNegativePairsHaveReasonableHardness(t *testing.T) {
	b := MustGenerate("AB", Options{Seed: 11, MaxRecords: 100, MaxMatches: 50})
	neg, hard := 0, 0
	for _, p := range b.Pairs {
		if p.Match {
			continue
		}
		neg++
		if strutil.Jaccard(p.Left.Text(), p.Right.Text()) > 0.05 {
			hard++
		}
	}
	if neg == 0 {
		t.Fatal("no negatives sampled")
	}
	if hard == 0 {
		t.Error("expected at least some hard negatives sharing tokens")
	}
}
