package neighborhood

import (
	"fmt"
	"testing"

	"certa/internal/dataset"
	"certa/internal/record"
)

// drain pulls every candidate ID from a stream.
func drain(s *Stream) []string {
	var out []string
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r.ID)
	}
}

func equalIDs(t *testing.T, got, want []string, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d is %s, scan has %s", what, i, got[i], want[i])
		}
	}
}

// TestIndexStreamsMatchScan is the retrieval layer's core contract: the
// index's lazy-heap streams must reproduce the scan path's candidate
// order exactly — every record, every seed, both ranking directions —
// on a realistic benchmark table.
func TestIndexStreamsMatchScan(t *testing.T) {
	bench := dataset.MustGenerate("AB", dataset.Options{Seed: 9, MaxRecords: 120, MaxMatches: 60})
	for _, table := range []*record.Table{bench.Left, bench.Right} {
		ix := NewIndex(table)
		sc := NewScan(table)
		queries := []string{
			bench.Left.Records[0].Text(),
			bench.Right.Records[3].Text(),
			"", // empty query: every overlap ties, order falls back to the shuffle
			"zzz-token-not-in-any-record",
		}
		for _, seed := range []int64{0, 1, 7, 131} {
			equalIDs(t, drain(ix.Shuffled(seed)), drain(sc.Shuffled(seed)),
				fmt.Sprintf("%s shuffled seed=%d", table.Schema.Name, seed))
			for _, q := range queries {
				for _, asc := range []bool{true, false} {
					got := drain(ix.Ranked(seed, q, asc))
					want := drain(sc.Ranked(seed, q, asc))
					equalIDs(t, got, want,
						fmt.Sprintf("%s ranked seed=%d asc=%v query=%.20q", table.Schema.Name, seed, asc, q))
				}
			}
		}
	}
}

// TestRankedOrdersByOverlap pins the ranking semantics on a hand-built
// table: a query identical to one record must surface that record first
// in descending mode and last in ascending mode.
func TestRankedOrdersByOverlap(t *testing.T) {
	s := record.MustSchema("T", "name")
	table := record.NewTable(s)
	table.MustAdd(record.MustNew("exact", s, "alpha beta gamma"))
	table.MustAdd(record.MustNew("half", s, "alpha beta other"))
	table.MustAdd(record.MustNew("none", s, "unrelated words here"))
	ix := NewIndex(table)

	desc := drain(ix.Ranked(1, "alpha beta gamma", false))
	if desc[0] != "exact" || desc[2] != "none" {
		t.Errorf("descending order = %v, want exact..none", desc)
	}
	asc := drain(ix.Ranked(1, "alpha beta gamma", true))
	if asc[0] != "none" || asc[2] != "exact" {
		t.Errorf("ascending order = %v, want none..exact", asc)
	}
}

// TestRankedEmptyBothSidesIsFullOverlap pins the missing-value edge: a
// record with no token evidence against an empty query counts as full
// overlap (1), ranking above partially overlapping records in
// descending mode — on both implementations.
func TestRankedEmptyBothSidesIsFullOverlap(t *testing.T) {
	s := record.MustSchema("T", "name")
	table := record.NewTable(s)
	table.MustAdd(record.MustNew("blank", s, "NaN"))
	table.MustAdd(record.MustNew("words", s, "alpha beta"))
	for _, src := range []CandidateSource{NewIndex(table), NewScan(table)} {
		got := drain(src.Ranked(1, "", false))
		if got[0] != "blank" {
			t.Errorf("%T: descending with empty query = %v, want blank first", src, got)
		}
	}
}

// TestIndexPostingsAndIDF spot-checks the inverted index blocking
// consumes.
func TestIndexPostingsAndIDF(t *testing.T) {
	s := record.MustSchema("T", "name")
	table := record.NewTable(s)
	table.MustAdd(record.MustNew("a", s, "shared alpha"))
	table.MustAdd(record.MustNew("b", s, "shared beta"))
	ix := NewIndex(table)

	if got := ix.Postings("shared"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("postings(shared) = %v, want [0 1]", got)
	}
	if got := ix.Postings("alpha"); len(got) != 1 || got[0] != 0 {
		t.Errorf("postings(alpha) = %v, want [0]", got)
	}
	if ix.Postings("absent") != nil {
		t.Error("unknown token should have nil postings")
	}
	if ix.IDF("absent") != 0 {
		t.Error("unknown token should have zero IDF")
	}
	// Rarer tokens weigh more.
	if !(ix.IDF("alpha") > ix.IDF("shared")) {
		t.Errorf("IDF(alpha)=%v should exceed IDF(shared)=%v", ix.IDF("alpha"), ix.IDF("shared"))
	}
}

// TestStats checks the build-time footprint accounting.
func TestStats(t *testing.T) {
	bench := dataset.MustGenerate("AB", dataset.Options{Seed: 9, MaxRecords: 60, MaxMatches: 30})
	src := NewSources(bench.Left, bench.Right)
	st, ok := src.Stats()
	if !ok {
		t.Fatal("index sources should report stats")
	}
	if st.Records != bench.Left.Len()+bench.Right.Len() {
		t.Errorf("records = %d, want %d", st.Records, bench.Left.Len()+bench.Right.Len())
	}
	if st.DistinctTokens <= 0 {
		t.Errorf("distinct tokens = %d, want > 0", st.DistinctTokens)
	}
	if st.BuildMS <= 0 {
		t.Errorf("build ms = %v, want > 0", st.BuildMS)
	}
	if _, ok := NewScanSources(bench.Left, bench.Right).Stats(); ok {
		t.Error("scan sources should not report index stats")
	}
}

// TestSourcesSide checks side addressing.
func TestSourcesSide(t *testing.T) {
	bench := dataset.MustGenerate("AB", dataset.Options{Seed: 9, MaxRecords: 40, MaxMatches: 20})
	src := NewSources(bench.Left, bench.Right)
	if src.Side(record.Left).Table() != bench.Left || src.Side(record.Right).Table() != bench.Right {
		t.Error("Side addresses the wrong table")
	}
}

// BenchmarkSupportSearch compares the old scan retrieval against the
// prebuilt index on the triangle search's real access pattern: stream
// the first 50 overlap-ranked candidates for a pivot record, as the
// guided augmented-support search does per explanation.
func BenchmarkSupportSearch(b *testing.B) {
	bench := dataset.MustGenerate("AB", dataset.Options{Seed: 9, MaxRecords: 300, MaxMatches: 150})
	pivot := bench.Right.Records[0].Text()
	const want = 50
	pull := func(src CandidateSource, asc bool) {
		stream := src.Ranked(7, pivot, asc)
		for i := 0; i < want; i++ {
			if _, ok := stream.Next(); !ok {
				break
			}
		}
	}
	b.Run("scan", func(b *testing.B) {
		src := NewScan(bench.Left)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pull(src, i%2 == 0)
		}
	})
	b.Run("index", func(b *testing.B) {
		src := NewIndex(bench.Left)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pull(src, i%2 == 0)
		}
	})
}
