package matchers

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"certa/internal/record"
	"certa/internal/strutil"
)

// textFunc embeds a text. Returned vectors are read-only.
type textFunc func(s string) []float64

// appendAttrBlock appends the block appendBlock appends for one value
// pair, computed with no memo: text embeds each value.
func appendAttrBlock(dst []float64, text textFunc, lv, rv string) []float64 {
	lm, rm := strutil.IsMissing(lv), strutil.IsMissing(rv)
	if lm || rm {
		return appendMissingBlock(dst, lm, rm)
	}
	sims := similarities(text(lv), text(rv), lv, rv)
	return append(append(dst, sims[:]...), 0, 0)
}

// restored returns a copy of m restored from its MarshalBinary bytes,
// so its memos start empty.
func restored(t testing.TB, m *Model) *Model {
	t.Helper()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := new(Model)
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return back
}

// TestTextIDsExact: two texts get equal ids exactly when they are equal
// strings, however many goroutines race to resolve them first and
// whether or not they are one string object.
func TestTextIDsExact(t *testing.T) {
	b, models := testBenchmark(t)
	m := restored(t, models[DeepMatcher])
	var texts []string
	for i := 0; i < 64; i++ {
		s := fmt.Sprintf("value %d", i%32)
		if i >= 32 {
			s = strings.Clone(s) // equal content, another string object
		}
		texts = append(texts, s)
	}
	ids := make([][]uint32, 8)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]uint32, len(texts))
			for k := range texts {
				i := (k + 7*g) % len(texts) // each goroutine starts elsewhere
				ids[g][i] = m.c.entry(texts[i]).id
			}
		}()
	}
	wg.Wait()
	for g := range ids {
		for i := range texts {
			for j := range texts {
				if (ids[g][i] == ids[0][j]) != (texts[i] == texts[j]) {
					t.Fatalf("goroutine %d: %q has id %d, %q has id %d", g, texts[i], ids[g][i], texts[j], ids[0][j])
				}
			}
		}
	}

	// Restoring the model replaces its ids and blocks together.
	m.ScoreBatch([]record.Pair{b.Test[0].Pair, b.Test[1].Pair})
	if m.BlockStats().Entries == 0 {
		t.Fatal("scoring stored no blocks")
	}
	data, err := models[DeepMatcher].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if st, bt := m.EmbeddingStats(), m.BlockStats(); st.Entries != 0 || bt.Entries != 0 || m.c.lastID.Load() != 0 {
		t.Fatalf("a restored model kept %d texts, %d blocks and id %d", st.Entries, bt.Entries, m.c.lastID.Load())
	}
}

// TestScoreAllocs: a warm DeepMatcher Score allocates nothing, and a
// warm ScoreBatch allocates its result slice only.
func TestScoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	b, models := testBenchmark(t)
	m := models[DeepMatcher]
	p := b.Test[0].Pair
	pairs := []record.Pair{p, b.Test[1].Pair, b.Test[2].Pair}
	m.Score(p)
	m.ScoreBatch(pairs)
	if n := testing.AllocsPerRun(100, func() { m.Score(p) }); n != 0 {
		t.Errorf("a warm Score allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.ScoreBatch(pairs) }); n != 1 {
		t.Errorf("a warm ScoreBatch allocates %.1f objects, want 1 (its result)", n)
	}
}

// TestBlockMemoHeapBytes bounds what one memoized attribute block costs
// in live heap. A fresh model's block memo is filled with the 10,000
// ordered pairs of 100 distinct values (one row per pair, every aligned
// attribute holding the row's two values), and the heap it gained, text
// entries and token vectors included, divided by the blocks stored must
// stay at or under 110 bytes. Keyed by the two value strings, with all
// seven block features, a block held about 165 bytes at this size;
// keyed by two text ids, with the five similarities, it holds about 95.
// The memo's stripes sit at about 60% of their table capacity here; a
// memo filled to just below its growth point reads about a third less
// on both sides, which would hide the difference.
func TestBlockMemoHeapBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	_, models := testBenchmark(t)
	m := restored(t, models[DeepMatcher])
	f := m.feat.(*deepMatcherFeat)
	const n = 100
	s := record.MustSchema("S", f.attrs...)
	var recs []*record.Record
	for i := 0; i < n; i++ {
		v := make([]string, len(f.attrs))
		for j := range v {
			v[j] = fmt.Sprintf("sony dcr-trv%d minidv handycam", i)
		}
		recs = append(recs, record.MustNew(fmt.Sprint(i), s, v...))
	}

	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	pairs := make([]record.Pair, n)
	for _, l := range recs {
		for j, r := range recs {
			pairs[j] = record.Pair{Left: l, Right: r}
		}
		m.ScoreBatch(pairs)
	}
	pairs = nil
	after := liveHeap()
	runtime.KeepAlive(m)
	runtime.KeepAlive(recs)

	blocks := m.BlockStats().Entries
	if blocks != n*n {
		t.Fatalf("the block memo holds %d blocks, want %d", blocks, n*n)
	}
	const bound = 110
	perBlock := float64(after-before) / float64(blocks)
	t.Logf("%d blocks memoized, %.0f live heap bytes each (bound %d)", blocks, perBlock, bound)
	if perBlock > bound {
		t.Errorf("a memoized block holds %.0f bytes of live heap over %d blocks, want <= %d", perBlock, blocks, bound)
	}
}

// FuzzScoreBatch checks DeepMatcher's batch pass against per-pair
// scoring. It builds a batch of 2–8 pairs from three fuzz strings with
// deliberate repeats: values equal to the previous row's, equal content
// in distinct string objects, one string on both sides, missing markers
// and schemas with other attribute orders or an attribute missing. A
// restored model's ScoreBatch on empty memos, its ScoreBatch again, the
// per-pair Score of another restored model and a forward pass over
// blocks computed with no memo at all must agree bit for bit.
func FuzzScoreBatch(f *testing.F) {
	f.Add("sony dcr-trv27 minidv", "sony dcr trv27", "3.99", []byte{5, 0, 1, 2, 0, 1, 2})
	f.Add("canon zr60", "canon zr60", "NaN", []byte{7, 0, 0, 0, 0, 3, 3, 3, 6, 6})
	f.Add("", "null", "  spaced   out  ", []byte{3, 1, 2, 4, 5, 6, 7})
	f.Add("é Ünicode 1,000", "1 2 3", "1 2 3", []byte{6, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128})
	f.Add("a", "b", "c", []byte{})
	// Two rows whose left values repeat while the right ones change.
	f.Add("sony dcr-trv27 minidv", "sony dcr trv27", "3.99", []byte{0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 2, 2, 2})
	_, models := testBenchmark(f)
	data, err := models[DeepMatcher].MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	attrs := models[DeepMatcher].feat.(*deepMatcherFeat).attrs
	reversed := make([]string, len(attrs))
	for i, a := range attrs {
		reversed[len(attrs)-1-i] = a
	}
	schemas := []*record.Schema{
		record.MustSchema("S", attrs...),
		{Name: "Literal", Attrs: reversed}, // no name index
		record.MustSchema("Short", attrs[:len(attrs)-1]...),
	}
	f.Fuzz(func(t *testing.T, a, b, c string, layout []byte) {
		vals := []string{a, b, c, strings.Clone(a), strings.Clone(b), "NaN", "", " null "}
		k := 0
		next := func() int {
			if k >= len(layout) {
				return 0
			}
			k++
			return int(layout[k-1])
		}
		build := func(id string) *record.Record {
			s := schemas[next()%len(schemas)]
			v := make([]string, s.Len())
			for i := range v {
				v[i] = vals[next()%len(vals)]
			}
			return &record.Record{ID: id, Schema: s, Values: v}
		}
		pairs := make([]record.Pair, 2+next()%7)
		for i := range pairs {
			switch {
			case i > 0 && next()%4 == 0:
				pairs[i] = pairs[i-1] // the previous row's records
			case next()%5 == 0:
				r := build("lr") // one record on both sides
				pairs[i] = record.Pair{Left: r, Right: r}
			default:
				pairs[i] = record.Pair{Left: build("l"), Right: build("r")}
			}
		}

		restore := func() *Model {
			m := new(Model)
			if err := m.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			return m
		}
		cold := restore()
		got := cold.ScoreBatch(pairs)
		again := cold.ScoreBatch(pairs)
		single := restore()
		for i, p := range pairs {
			want := single.Score(p)
			var ref []float64
			for _, a := range attrs {
				ref = appendAttrBlock(ref, cold.c.emb.Text, p.Left.Value(a), p.Right.Value(a))
			}
			plain := cold.net.Predict(ref)
			for name, v := range map[string]float64{"ScoreBatch": got[i], "repeated ScoreBatch": again[i], "memo-free blocks": plain} {
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("pair %d (%v | %v): %s %v, per-pair Score %v", i, p.Left, p.Right, name, v, want)
				}
			}
		}
	})
}
