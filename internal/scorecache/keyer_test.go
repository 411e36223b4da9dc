package scorecache

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"certa/internal/record"
	"certa/internal/strutil"
)

// perturbMirror is the reference implementation the keyer must match:
// materialize the perturbed record exactly like core's perturb (copy the
// mask-selected attribute values from the support record into the free
// record); the keyer's key must be the view's Key of the resulting pair.
func perturbMirror(p record.Pair, side record.Side, w *record.Record, mask uint32) record.Pair {
	free := p.Record(side)
	vals := make(map[string]string)
	for i, a := range free.Schema.Attrs {
		if (mask>>uint(i))&1 == 1 {
			vals[a] = w.Value(a)
		}
	}
	return p.WithRecord(side, free.WithValues(vals))
}

// TestPerturbKeyerMatchesMaterializedKey is the byte-identity gate
// promised by PerturbKeyer's doc comment: for random schemas, values
// (empty, unicode, and delimiter-colliding strings included), sides,
// support schemas with missing attributes and every mask, Key(mask)
// equals the view's Key of the materialized perturb(...) pair and
// renders to its canonical Key.
func TestPerturbKeyerMatchesMaterializedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	view := NewService(&countingModel{}, ServiceOptions{}).NewScorer(Options{})
	alphabet := []string{
		"", "x", "value with spaces", "é", "日本語",
		";", ":", "|", "<nil>", "3#S", ";1:x", strings.Repeat("z", 50),
	}
	pick := func() string { return alphabet[rng.Intn(len(alphabet))] }

	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		attrs := make([]string, n)
		for i := range attrs {
			attrs[i] = string(rune('a' + i))
		}
		schema, err := record.NewSchema("S", attrs...)
		if err != nil {
			t.Fatal(err)
		}

		// The support record's schema may miss some of the free record's
		// attributes; Value then reports the NaN token, which the keyer
		// must frame exactly like any other value.
		var wAttrs []string
		for _, a := range attrs {
			if rng.Intn(4) > 0 {
				wAttrs = append(wAttrs, a)
			}
		}
		if len(wAttrs) == 0 {
			wAttrs = attrs[:1]
		}
		wSchema, err := record.NewSchema("W", wAttrs...)
		if err != nil {
			t.Fatal(err)
		}

		vals := func(k int) []string {
			out := make([]string, k)
			for i := range out {
				out[i] = pick()
			}
			return out
		}
		p := record.Pair{
			Left:  record.MustNew("L", schema, vals(n)...),
			Right: record.MustNew("R", schema, vals(n)...),
		}
		side := record.Left
		if rng.Intn(2) == 1 {
			side = record.Right
		}
		// A nil fixed record must be tolerated exactly like Key.
		if rng.Intn(5) == 0 {
			if side == record.Right {
				p.Left = nil
			} else {
				p.Right = nil
			}
		}
		w := record.MustNew("w", wSchema, vals(len(wAttrs))...)

		keyer := view.PerturbKeyer(p, side, w)
		for mask := uint32(0); mask < 1<<uint(n); mask++ {
			got := keyer.Key(mask)
			if len(got) != keyer.Len() {
				t.Fatalf("trial %d mask %b: key of %d bytes, Len %d", trial, mask, len(got), keyer.Len())
			}
			mat := perturbMirror(p, side, w, mask)
			if want := view.Key(mat); got != want {
				t.Fatalf("trial %d side %v mask %b:\nkeyer %q\nwant  %q", trial, side, mask, got, want)
			}
			if got, want := render(view, got), Key(mat); got != want {
				t.Fatalf("trial %d side %v mask %b renders\n%q\nwant %q", trial, side, mask, got, want)
			}
		}
	}
}

// TestSupportKeyerMatchesMaterializedKey is SupportKeyer's byte-identity
// gate: for random schemas and values (multi-digit lengths, the
// framing bytes ;:#| and non-ASCII included), both sides, natural and
// value-overridden candidates and nil fixed records, the keyer's key
// equals the view's Key of the materialized pair, renders to its
// canonical Key and is Len bytes long. The same holds for the key of
// every Variants id of every attribute, whose Value is the
// strutil.TokenDrops string at the same position.
func TestSupportKeyerMatchesMaterializedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	view := NewService(&countingModel{}, ServiceOptions{}).NewScorer(Options{})
	alphabet := []string{
		"", "x", "3#S", ";1:x", "a|b", "<nil>", "é", "日本語", "\xff\xfe",
		strings.Repeat("z", 9), strings.Repeat("y", 10), strings.Repeat("w;", 60),
		strings.Repeat("日", 40), "Sony DSC-W55 ; 4000", "  a  B\tc ", "NaN x", "x NaN",
	}
	pick := func() string { return alphabet[rng.Intn(len(alphabet))] }
	vals := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		attrs := make([]string, n)
		for i := range attrs {
			attrs[i] = "a" + strings.Repeat("b", i)
		}
		schema := record.MustSchema(pick()+"S", attrs...)
		p := record.Pair{
			Left:  record.MustNew("L", schema, vals(n)...),
			Right: record.MustNew("R", schema, vals(n)...),
		}
		side := record.Side(rng.Intn(2))
		if rng.Intn(5) == 0 {
			if side == record.Left {
				p.Right = nil
			} else {
				p.Left = nil
			}
		}
		keyer := view.SupportKeyer(p, side)
		for c := 0; c < 8; c++ {
			w := record.MustNew("w", schema, vals(n)...)
			at, v := -1, ""
			cand := w
			if rng.Intn(3) > 0 {
				at, v = rng.Intn(n), pick()
				cand = w.Clone()
				cand.Values[at] = v
			}
			got := keyer.Key(w, at, v)
			mat := p.WithRecord(side, cand)
			if want := view.Key(mat); got != want {
				t.Fatalf("trial %d side %v at %d:\nkeyer %q\nwant  %q", trial, side, at, got, want)
			}
			if got, want := render(view, got), Key(mat); got != want {
				t.Fatalf("trial %d side %v at %d renders\n%q\nwant %q", trial, side, at, got, want)
			}
			if len(got) != keyer.Len(w) {
				t.Fatalf("trial %d side %v at %d: key of %d bytes, Len %d", trial, side, at, len(got), keyer.Len(w))
			}
			for ai := range w.Values {
				ids := keyer.Variants(w, ai)
				drops := strutil.TokenDrops(w.Values[ai])
				if len(ids) != len(drops) {
					t.Fatalf("trial %d: %d variant ids of %q, want %d", trial, len(ids), w.Values[ai], len(drops))
				}
				for i, id := range ids {
					if got := keyer.Value(id); got != drops[i] {
						t.Fatalf("trial %d at %d variant %d: Value %q, want %q", trial, ai, i, got, drops[i])
					}
					cand := w.Clone()
					cand.Values[ai] = drops[i]
					var b strings.Builder
					keyer.WriteKey(&b, w, ai, id)
					if got, want := b.String(), view.Key(p.WithRecord(side, cand)); got != want {
						t.Fatalf("trial %d at %d variant %q:\nkeyer %q\nwant  %q", trial, ai, drops[i], got, want)
					}
				}
			}
		}
	}
}

// TestScoreKeyedMaterializesOnlyMisses pins the keyed score path:
// materialize runs once per key the store must score — never for a view
// hit, an in-batch duplicate or a key a warm store holds — and the
// view's Stats equal ScoreBatchContext's on the same input.
func TestScoreKeyedMaterializesOnlyMisses(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	known := pairOf(strings.Repeat("x", 30), "warm")
	miss := pairOf("x", "cold")
	other := pairOf("xy", "cold")
	if _, err := svc.NewScorer(Options{}).ScoreBatchContext(context.Background(), []record.Pair{known}); err != nil {
		t.Fatal(err)
	}

	batch := []record.Pair{known, miss, miss, other}
	keyed := svc.NewScorer(Options{})
	keys := make([]string, len(batch))
	for i, p := range batch {
		keys[i] = keyed.Key(p)
	}
	materialized := make(map[int]int)
	got, err := keyed.ScoreBatchKeyedContext(context.Background(), keys, func(i int) record.Pair {
		materialized[i]++
		return batch[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	want := svc.Underlying().ScoreBatch(batch)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(materialized) != 2 || materialized[1] != 1 || materialized[3] != 1 {
		t.Fatalf("materialized %v, want indexes 1 and 3 once each", materialized)
	}

	// A repeat batch on the same view is all view hits; a new view over
	// the now-warm store is all store hits. Neither materializes.
	noBuild := func(i int) record.Pair {
		t.Fatalf("index %d materialized with every key stored", i)
		return record.Pair{}
	}
	if _, err := keyed.ScoreBatchKeyedContext(context.Background(), keys, noBuild); err != nil {
		t.Fatal(err)
	}
	warm := svc.NewScorer(Options{})
	if _, err := warm.ScoreBatchKeyedContext(context.Background(), keys, noBuild); err != nil {
		t.Fatal(err)
	}

	// Stats match the unkeyed path on the same input sequence.
	plain := svc.NewScorer(Options{})
	for r := 0; r < 2; r++ {
		if _, err := plain.ScoreBatchContext(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if keyed.Stats() != plain.Stats() {
		t.Fatalf("keyed stats %+v, unkeyed %+v", keyed.Stats(), plain.Stats())
	}
	if want := (Stats{Lookups: 8, Hits: 5, Misses: 3, Batches: 1}); keyed.Stats() != want {
		t.Fatalf("keyed stats %+v, want %+v", keyed.Stats(), want)
	}
}
