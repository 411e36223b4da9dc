package blocking

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"certa/internal/dataset"
	"certa/internal/neighborhood"
	"certa/internal/record"
	"certa/internal/strutil"
)

func smallTables() (*record.Table, *record.Table) {
	ls := record.MustSchema("U", "name", "desc")
	rs := record.MustSchema("V", "name", "desc")
	left := record.NewTable(ls)
	right := record.NewTable(rs)
	rows := []struct{ name, desc string }{
		{"sony bravia tv", "black panel"},
		{"canon pixma printer", "ink tank"},
		{"apple ipod nano", "music player"},
		{"sony walkman player", "cassette era"},
	}
	for i, r := range rows {
		left.MustAdd(record.MustNew(fmt.Sprintf("l%d", i), ls, r.name, r.desc))
		right.MustAdd(record.MustNew(fmt.Sprintf("r%d", i), rs, r.name, r.desc))
	}
	return left, right
}

func TestTokenBlockerFindsSharedTokenPairs(t *testing.T) {
	left, right := smallTables()
	b, err := NewTokenBlocker(right, Config{})
	if err != nil {
		t.Fatal(err)
	}
	l0, _ := left.Get("l0") // sony bravia tv
	cands := b.CandidatesFor(l0)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// The identical record must rank first.
	if cands[0].Pair.Right.ID != "r0" {
		t.Errorf("top candidate = %s, want r0", cands[0].Pair.Right.ID)
	}
	// "sony walkman player" shares the brand token and must appear.
	found := false
	for _, c := range cands {
		if c.Pair.Right.ID == "r3" {
			found = true
		}
	}
	if !found {
		t.Error("brand-sharing record not retrieved")
	}
}

func TestTokenBlockerScoresOrdered(t *testing.T) {
	left, right := smallTables()
	b, err := NewTokenBlocker(right, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range left.Records {
		cands := b.CandidatesFor(l)
		for i := 1; i < len(cands); i++ {
			if cands[i-1].Score < cands[i].Score {
				t.Fatalf("candidates not sorted by score: %v", cands)
			}
		}
	}
}

func TestTokenBlockerCap(t *testing.T) {
	left, right := smallTables()
	b, err := NewTokenBlocker(right, Config{MaxPerRecord: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range left.Records {
		if got := len(b.CandidatesFor(l)); got > 1 {
			t.Errorf("cap violated: %d candidates", got)
		}
	}
}

func TestTokenBlockerEmptyRight(t *testing.T) {
	ls := record.MustSchema("U", "a")
	if _, err := NewTokenBlocker(record.NewTable(ls), Config{}); err == nil {
		t.Error("empty right table should error")
	}
}

func TestStopTokenPruning(t *testing.T) {
	// A token present in every right record must be pruned from the
	// index (it cannot discriminate).
	ls := record.MustSchema("U", "a")
	rs := record.MustSchema("V", "a")
	right := record.NewTable(rs)
	for i := 0; i < 10; i++ {
		right.MustAdd(record.MustNew(fmt.Sprintf("r%d", i), rs, fmt.Sprintf("common unique%d", i)))
	}
	b, err := NewTokenBlocker(right, Config{MaxTokenFrequency: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	left := record.NewTable(ls)
	left.MustAdd(record.MustNew("l0", ls, "common"))
	if cands := b.CandidatesFor(left.Records[0]); len(cands) != 0 {
		t.Errorf("stop token should retrieve nothing, got %d", len(cands))
	}
}

func TestBlockingOnBenchmarkRecall(t *testing.T) {
	bench := dataset.MustGenerate("AB", dataset.Options{Seed: 3, MaxRecords: 150, MaxMatches: 80})
	b, err := NewTokenBlocker(bench.Right, Config{MaxPerRecord: 20})
	if err != nil {
		t.Fatal(err)
	}
	cands := b.Block(bench.Left)
	q := Evaluate(cands, bench.Left.Len(), bench.Right.Len(), len(bench.Matches), bench.IsMatch)
	t.Logf("AB blocking: recall=%.3f reduction=%.3f candidates=%d", q.Recall, q.ReductionRatio, q.Candidates)
	if q.Recall < 0.7 {
		t.Errorf("blocking recall %.3f too low for a token blocker", q.Recall)
	}
	if q.ReductionRatio < 0.5 {
		t.Errorf("reduction ratio %.3f too low", q.ReductionRatio)
	}
}

// referenceCandidates is the historical private TokenBlocker
// implementation — its own tokenization, inverted index and IDF —
// kept inline as the regression oracle for the refactor onto the shared
// neighborhood index. Tokens are visited in sorted order so the
// floating-point weight sums match the blocker's deterministic
// accumulation exactly.
func referenceCandidates(right *record.Table, cfg Config, l *record.Record) []Candidate {
	cfg = cfg.withDefaults()
	index := make(map[string][]int)
	for i, r := range right.Records {
		for tok := range strutil.TokenSet(r.Text()) {
			index[tok] = append(index[tok], i)
		}
	}
	n := float64(right.Len())
	maxDF := int(cfg.MaxTokenFrequency * n)
	if maxDF < 2 {
		maxDF = 2
	}
	idf := make(map[string]float64)
	for tok, posting := range index {
		if len(posting) > maxDF {
			delete(index, tok)
			continue
		}
		idf[tok] = math.Log(1 + n/float64(len(posting)))
	}
	type hit struct {
		shared int
		weight float64
	}
	hits := make(map[int]*hit)
	for _, tok := range strutil.DistinctTokens(l.Text()) {
		posting, ok := index[tok]
		if !ok {
			continue
		}
		for _, ri := range posting {
			h := hits[ri]
			if h == nil {
				h = &hit{}
				hits[ri] = h
			}
			h.shared++
			h.weight += idf[tok]
		}
	}
	var out []Candidate
	for ri, h := range hits {
		if h.shared < cfg.MinSharedTokens {
			continue
		}
		out = append(out, Candidate{
			Pair:  record.Pair{Left: l, Right: right.Records[ri]},
			Score: h.weight,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Pair.Right.ID < out[j].Pair.Right.ID
	})
	if len(out) > cfg.MaxPerRecord {
		out = out[:cfg.MaxPerRecord]
	}
	return out
}

// TestTokenBlockerMatchesReferenceImplementation pins the refactor onto
// the shared neighborhood index: on the AB benchmark, the index-backed
// blocker — built directly and through NewTokenBlockerFromIndex over a
// caller-shared index — must produce exactly the candidates (IDs,
// order, scores) of the historical private implementation for every
// left record.
func TestTokenBlockerMatchesReferenceImplementation(t *testing.T) {
	bench := dataset.MustGenerate("AB", dataset.Options{Seed: 3, MaxRecords: 150, MaxMatches: 80})
	for _, cfg := range []Config{{}, {MaxPerRecord: 20}, {MaxPerRecord: 5, MinSharedTokens: 2, MaxTokenFrequency: 0.1}} {
		fresh, err := NewTokenBlocker(bench.Right, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := NewTokenBlockerFromIndex(neighborhood.NewIndex(bench.Right), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range bench.Left.Records {
			want := referenceCandidates(bench.Right, cfg, l)
			for name, b := range map[string]*TokenBlocker{"fresh": fresh, "from-index": shared} {
				got := b.CandidatesFor(l)
				if len(got) != len(want) {
					t.Fatalf("cfg %+v, %s blocker, record %s: %d candidates, reference has %d",
						cfg, name, l.ID, len(got), len(want))
				}
				for i := range want {
					if got[i].Pair.Right.ID != want[i].Pair.Right.ID || got[i].Score != want[i].Score {
						t.Fatalf("cfg %+v, %s blocker, record %s, candidate %d: got (%s, %v), reference (%s, %v)",
							cfg, name, l.ID, i, got[i].Pair.Right.ID, got[i].Score,
							want[i].Pair.Right.ID, want[i].Score)
					}
				}
			}
		}
	}
}

func TestEvaluateDedupes(t *testing.T) {
	left, right := smallTables()
	l0, _ := left.Get("l0")
	r0, _ := right.Get("r0")
	dup := Candidate{Pair: record.Pair{Left: l0, Right: r0}}
	q := Evaluate([]Candidate{dup, dup}, 4, 4, 1, func(l, r string) bool { return l == "l0" && r == "r0" })
	if q.Candidates != 1 {
		t.Errorf("duplicates should collapse: %d", q.Candidates)
	}
	if q.Recall != 1 {
		t.Errorf("recall = %v", q.Recall)
	}
}

func BenchmarkTokenBlocker(b *testing.B) {
	bench := dataset.MustGenerate("WA", dataset.Options{Seed: 3, MaxRecords: 200, MaxMatches: 100})
	blocker, err := NewTokenBlocker(bench.Right, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocker.CandidatesFor(bench.Left.Records[i%bench.Left.Len()])
	}
}
