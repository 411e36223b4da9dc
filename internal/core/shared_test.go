package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"certa/internal/record"
	"certa/internal/scorecache"
)

// TestExplainBatchSharedCacheDeterministicAcrossParallelism pins the
// acceptance contract of the shared scoring service: with the shared
// cache on, ExplainBatch results — per-pair diagnostics included — are
// index-aligned identical at Parallelism 1 and 8, and both match a
// sequential loop of private-cache Explain calls.
func TestExplainBatchSharedCacheDeterministicAcrossParallelism(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 12)

	run := func(par int) []*Result {
		svc := scorecache.NewService(textModel{}, scorecache.ServiceOptions{Parallelism: par})
		e := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5, Parallelism: par, Shared: svc})
		out, err := e.ExplainBatch(textModel{}, pairs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one := run(1)
	eight := run(8)

	seq := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5})
	for i, p := range pairs {
		priv, err := seq.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one[i], eight[i]) {
			t.Errorf("pair %d (%s): shared-cache results differ between Parallelism 1 and 8", i, p.Key())
		}
		if !reflect.DeepEqual(one[i], priv) {
			t.Errorf("pair %d (%s): shared-cache result differs from private-cache Explain\nshared:  %+v\nprivate: %+v",
				i, p.Key(), one[i].Diag, priv.Diag)
		}
	}
}

// TestSharedServiceModelMismatchRejected guards the injection contract:
// a service wrapping one model cannot silently answer for another.
func TestSharedServiceModelMismatchRejected(t *testing.T) {
	b, pairs := benchPairs(t, "AB", 1)
	svc := scorecache.NewService(textModel{}, scorecache.ServiceOptions{})
	e := New(b.Left, b.Right, Options{Triangles: 4, Seed: 1, Shared: svc})
	if _, err := e.Explain(otherModel{}, pairs[0]); err == nil {
		t.Fatal("expected an error explaining a different model through the shared service")
	}
}

type otherModel struct{ textModel }

func (otherModel) Name() string { return "other" }

// TestExplainBatchLeftoverWorkersShardInner checks the parallelism
// distribution: with more workers than pairs, the leftover budget goes
// to inner batch sharding (and results stay identical, which
// TestExplainBatchSharedCacheDeterministicAcrossParallelism already
// covers at scale). Here 8 workers over 3 pairs must match 1 worker.
func TestExplainBatchLeftoverWorkersShardInner(t *testing.T) {
	b, pairs := benchPairs(t, "BA", 3)
	wide := New(b.Left, b.Right, Options{Triangles: 10, Seed: 3, Parallelism: 8})
	got, err := wide.ExplainBatch(textModel{}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	narrow := New(b.Left, b.Right, Options{Triangles: 10, Seed: 3})
	want, err := narrow.ExplainBatch(textModel{}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("pair %d: results differ when leftover workers shard inner batches", i)
		}
	}
}

// flipsOneRecord predicts Non-Match for the token-drop variants of one
// source record — values "<tag>a <tag>b <tag>c" — and Match for every
// other input, so exactly one candidate record of a stream is eligible.
type flipsOneRecord struct{ tag string }

func (m flipsOneRecord) Name() string { return "flips-" + m.tag }
func (m flipsOneRecord) Score(p record.Pair) float64 {
	for _, tok := range strings.Fields(p.Left.Value("a")) {
		if strings.TrimRight(tok, "abc") == m.tag {
			return 0.1
		}
	}
	return 0.9
}

// TestAugmentedPatienceCountsRecords pins the abandonment point of the
// guided augmented-support scan: patience is spent per candidate record,
// not per token-drop variant, and the scan gives up only once
// augmentPatience consecutive records came up barren. Each record
// carries a 3-token value (4 variants), and the model flips the variants
// of one record only: the augmentPatience-th record of the scan's ranked
// stream must still be found, and the one after it must not.
func TestAugmentedPatienceCountsRecords(t *testing.T) {
	schema := record.MustSchema("S", "a")
	table := record.NewTable(schema)
	for i := 0; i < 30; i++ {
		table.MustAdd(record.MustNew(
			fmt.Sprintf("r%d", i), schema,
			fmt.Sprintf("tok%da tok%db tok%dc", i, i, i),
		))
	}
	pivotL := record.MustNew("pl", schema, "pivot left value")
	pivotR := record.MustNew("pr", schema, "pivot right value")
	p := record.Pair{Left: pivotL, Right: pivotR}

	e := New(table, table, Options{Triangles: 10, Seed: 1})
	var order []*record.Record
	for stream := e.augmentedStream(context.Background(), p, record.Left, true); ; {
		w, ok := stream.Next()
		if !ok {
			break
		}
		order = append(order, w)
	}
	found := func(pos int) bool { // pos counts stream records from 1
		w := order[pos-1]
		sc := scorecache.New(flipsOneRecord{tag: strings.TrimRight(strings.Fields(w.Value("a"))[0], "a")}, scorecache.Options{})
		calls := 0
		out, err := e.augmentedSupports(context.Background(), newRunBudget(sc, e.opts), &progress{}, sc, p, true, record.Left, 5, &calls)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range out {
			if !strings.HasPrefix(s.ID, w.ID+"#aug") {
				t.Fatalf("support %s does not derive from the only flipping record %s", s.ID, w.ID)
			}
		}
		return len(out) > 0
	}
	if !found(augmentPatience) {
		t.Fatalf("record %d of the stream was not found: the scan abandoned before %d barren records",
			augmentPatience, augmentPatience-1)
	}
	if found(augmentPatience + 1) {
		t.Fatalf("record %d of the stream was found: the scan kept going after %d barren records",
			augmentPatience+1, augmentPatience)
	}
}

// TestAugmentedPatienceResetsOnEligibleRecord checks the streak is per
// record and resets when a record yields a support: a model that accepts
// every 10th record's variants keeps the scan alive past 20 records.
func TestAugmentedPatienceResetsOnEligibleRecord(t *testing.T) {
	schema := record.MustSchema("S", "a")
	table := record.NewTable(schema)
	for i := 0; i < 60; i++ {
		table.MustAdd(record.MustNew(
			fmt.Sprintf("r%02d", i), schema,
			fmt.Sprintf("t%02da t%02db t%02dc", i, i, i),
		))
	}
	pivotL := record.MustNew("pl", schema, "pivot left value")
	pivotR := record.MustNew("pr", schema, "pivot right value")
	p := record.Pair{Left: pivotL, Right: pivotR}

	e := New(table, table, Options{Triangles: 10, Seed: 1})
	sc := scorecache.New(everyTenth{}, scorecache.Options{})
	calls := 0
	out, err := e.augmentedSupports(context.Background(), newRunBudget(sc, e.opts), &progress{}, sc, p, true, record.Left, 6, &calls)
	if err != nil {
		t.Fatal(err)
	}

	// Eligible records arrive sprinkled through the stream less than 20
	// records apart, so the scan never abandons and finds all 6 wanted
	// supports (each eligible record contributes its flipping variants).
	if len(out) != 6 {
		t.Fatalf("found %d supports, want 6 (scan must not abandon between eligible records)", len(out))
	}
}

// everyTenth flips (predicts Non-Match) for variants derived from every
// 10th record, identified by its token prefix.
type everyTenth struct{}

func (everyTenth) Name() string { return "every-tenth" }
func (everyTenth) Score(p record.Pair) float64 {
	for _, tag := range []string{"t00", "t10", "t20", "t30", "t40", "t50"} {
		if strings.Contains(p.Left.Value("a"), tag+"a") || strings.Contains(p.Left.Value("a"), tag+"b") {
			return 0.1
		}
	}
	return 0.9
}
