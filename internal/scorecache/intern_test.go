package scorecache

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"certa/internal/record"
)

// render is the canonical Key a store key of view's Service stands for.
func render(view *Scorer, key string) string {
	return canonical(key, view.svc.strs.table())
}

// fuzzPair builds a pair from s: its ','-separated fields are split in
// half, and each half is a record whose schema name is its first field
// and whose values are the rest. A half that is empty or named "<nil>"
// is a nil record, so values and names hold ;, :, | and # wherever s
// does, and long fields give multi-digit lengths.
func fuzzPair(s string) record.Pair {
	fields := strings.Split(s, ",")
	half := (len(fields) + 1) / 2
	rec := func(f []string) *record.Record {
		if len(f) == 0 || f[0] == nilRecord {
			return nil
		}
		return &record.Record{ID: "fuzz", Schema: &record.Schema{Name: f[0]}, Values: f[1:]}
	}
	return record.Pair{Left: rec(fields[:half]), Right: rec(fields[half:])}
}

// FuzzStoreKey checks the two key forms against each other. For any
// string s, parsing s into a store key and rendering that key gives s
// back. For a pair built from s, the view's key renders to the pair's
// canonical Key, parsing that Key gives the view's key, and s parses to
// the view's key exactly when s is that Key — so a non-canonical
// spelling (the "03#S" seeds) keeps an opaque key no pair shares.
func FuzzStoreKey(f *testing.F) {
	for _, s := range []string{
		"", "<nil>|<nil>", "3#S;1:x|<nil>", "03#S;1:x|<nil>", "3#S;01:x|<nil>",
		"3#S;1:x|3#S;1:x", "3#S;1:x|3#S;1:x|", "3#S;1:x", "3#S;2:x|<nil>", "0#|0#;0:",
		"S,x,1:x,T,a|b,;1:x", "<nil>,a,S,b", "S,3#S;1:x|<nil>,T", "n#,;,:,|,#," + strings.Repeat("v", 120),
		Key(pairOf("a;b", "c|d")), Key(record.Pair{Left: pairOf("x", "y").Left}),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		svc := NewService(&countingModel{}, ServiceOptions{})
		view := svc.NewScorer(Options{})
		k := svc.parseKey(s)
		if got := render(view, k); got != s {
			t.Fatalf("parse then render of %q gives %q", s, got)
		}

		p := fuzzPair(s)
		vk := view.Key(p)
		if got, want := render(view, vk), Key(p); got != want {
			t.Fatalf("view key of %q renders %q, want %q", s, got, want)
		}
		if got := svc.parseKey(Key(p)); got != vk {
			t.Fatalf("parsing Key %q gives %q, view key %q", Key(p), got, vk)
		}
		if (k == vk) != (s == Key(p)) {
			t.Fatalf("%q parses to the view key of Key %q: %v", s, Key(p), k == vk)
		}
	})
}

// TestNonCanonicalKeysStayOpaque pins the opaque form: a restored
// string that is not exactly a Key — a leading zero in a length, a
// missing or extra separator, a short value — gets a key no pair's key
// equals, distinct from the canonical spelling of the same content.
func TestNonCanonicalKeysStayOpaque(t *testing.T) {
	svc := NewService(&countingModel{}, ServiceOptions{})
	view := svc.NewScorer(Options{})
	p := record.Pair{Left: &record.Record{Schema: &record.Schema{Name: "S"}, Values: []string{"x"}}}
	canon := svc.parseKey(Key(p))
	if canon != view.Key(p) || word(canon, 0) == opaqueWord {
		t.Fatalf("canonical %q parses to %q, view key %q", Key(p), canon, view.Key(p))
	}
	for _, s := range []string{"01#S;1:x|<nil>", "1#S;01:x|<nil>", "1#S;1:x<nil>", "1#S;1:x|<nil>|", "1#S;2:x|<nil>", "1#S;1:x|<nil"} {
		k := svc.parseKey(s)
		if word(k, 0) != opaqueWord || k == canon {
			t.Errorf("%q parses to %q, want an opaque key", s, k)
		}
		if got := render(view, k); got != s {
			t.Errorf("%q renders back as %q", s, got)
		}
	}
}

// TestTableRecordRekeyedAfterMutation shows the SupportKeyer's record
// cache is re-checked against the record's current strings: a record
// whose value or schema changes after it was keyed is keyed from its
// new content, and restoring the old content restores the old key. A
// changed value also derives its token-drop variants again.
func TestTableRecordRekeyedAfterMutation(t *testing.T) {
	view := NewService(&countingModel{}, ServiceOptions{}).NewScorer(Options{})
	p := pairOf("x", "y")
	keyer := view.SupportKeyer(p, record.Right)
	w := record.MustNew("w", testSchema, "a", "b")
	check := func(what string) string {
		t.Helper()
		got := keyer.Key(w, -1, "")
		if want := view.Key(p.WithRecord(record.Right, w)); got != want {
			t.Fatalf("%s: keyer %q, view key %q", what, got, want)
		}
		return got
	}
	before := check("first keying")
	old := w.Values[0]
	w.Values[0] = "changed"
	if check("after a value change") == before {
		t.Fatal("a changed value kept the cached key")
	}
	w.Values[0] = strings.Clone(old) // equal bytes at a new address
	if check("after restoring the value") != before {
		t.Fatal("restored content keyed differently")
	}
	w.Schema = record.MustSchema("other", testSchema.Attrs...)
	if check("after a schema change") == before {
		t.Fatal("a changed schema name kept the cached key")
	}

	variants := func() []string {
		var out []string
		for _, id := range keyer.Variants(w, 1) {
			out = append(out, keyer.Value(id))
		}
		return out
	}
	w.Values[1] = "p q r"
	if got, want := variants(), []string{"q r", "p q", "r", "p"}; !slices.Equal(got, want) {
		t.Fatalf("variants of %q = %q, want %q", w.Values[1], got, want)
	}
	w.Values[1] = "s t"
	if got, want := variants(), []string{"t", "s"}; !slices.Equal(got, want) {
		t.Fatalf("after a value change, variants of %q = %q, want %q", w.Values[1], got, want)
	}
}

// TestConcurrentSupportKeyers keys the same table records from several
// goroutines at once (run with -race -count=10): each goroutine's
// SupportKeyer shares the Service's interner and record cache with the
// others, and every key, of a record or of one of its Variants ids,
// must equal the view's Key of the materialized candidate. Each
// goroutine releases its views and opens new ones, so key sets pass
// between goroutines through the pool, and every view's Stats must read
// as a private cache's.
func TestConcurrentSupportKeyers(t *testing.T) {
	svc := NewService(&countingModel{}, ServiceOptions{})
	table := make([]*record.Record, 40)
	for i := range table {
		table[i] = record.MustNew("t", testSchema, strings.Repeat("v", i%7), "w x y z")
	}
	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			side := record.Side(g % 2)
			p := pairOf("fixed", strings.Repeat("f", g))
			for round := 0; round < 3; round++ {
				view := svc.NewScorer(Options{})
				keyer := view.SupportKeyer(p, side)
				var pairs []record.Pair
				for i, w := range table {
					at, v := -1, ""
					cand := w
					if (i+g)%3 == 0 {
						at, v = 1, "x y z"[:1+(i+g)%5]
						cand = w.Clone()
						cand.Values[at] = v
					}
					if got, want := keyer.Key(w, at, v), view.Key(p.WithRecord(side, cand)); got != want {
						t.Errorf("goroutine %d record %d: keyer %q, view key %q", g, i, got, want)
						return
					}
					pairs = append(pairs, p.WithRecord(side, cand))
					for _, id := range keyer.Variants(w, 1) {
						cand := w.Clone()
						cand.Values[1] = keyer.Value(id)
						var b strings.Builder
						keyer.WriteKey(&b, w, 1, id)
						if got, want := b.String(), view.Key(p.WithRecord(side, cand)); got != want {
							t.Errorf("goroutine %d record %d variant %q: keyer %q, view key %q", g, i, cand.Values[1], got, want)
							return
						}
					}
				}
				if _, err := view.ScoreBatchContext(context.Background(), pairs); err != nil {
					t.Error(err)
					return
				}
				unique := make(map[string]bool)
				for _, q := range pairs {
					unique[Key(q)] = true
				}
				want := Stats{Lookups: len(pairs), Hits: len(pairs) - len(unique), Misses: len(unique), Batches: 1}
				if got := view.Stats(); got != want {
					t.Errorf("goroutine %d round %d: view stats %+v, want %+v", g, round, got, want)
					return
				}
				view.Release()
			}
		}(g)
	}
	wg.Wait()
}
