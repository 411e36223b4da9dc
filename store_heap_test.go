package certa_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"certa"
)

// TestRestoredScoreHeapBytes bounds what one stored score costs in live
// heap: the fixture's 16 pairs are explained on a fresh scoring service
// (20,720 scores), its snapshot is restored into another fresh service,
// and the heap that service holds after a full collection, divided by
// the scores restored, must stay at or under 200 bytes. Keyed by its
// canonical content, a stored score held about 600 bytes; keyed by
// interned value ids, in an entry object of its own with its key
// string, about 230; in a stripe's arena, record slab and index, about
// 190, interned strings included. The same service must also hold
// fewer heap objects than scores: the stripes' flat parts are a
// handful of objects each, so nearly all that remains is the interned
// strings, where an entry per score made 2.4 objects per score.
func TestRestoredScoreHeapBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds shadow memory to every allocation")
	}
	f := loadTraceBenchFixture(t)
	warm := certa.NewScoringService(f.model, certa.ScoringServiceOptions{Parallelism: 1})
	opts := certa.Options{Triangles: 100, Seed: 7, Parallelism: 1, Shared: warm, Retrieval: f.idx}
	if _, err := certa.ExplainBatchContext(context.Background(), f.model, f.bench.Left, f.bench.Right, f.pairs, opts); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := warm.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them. The snapshot bytes stay live across
	// both readings, so the difference is the restored service alone.
	liveHeap := func() (bytes, objects int64) {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc), int64(m.HeapObjects)
	}
	before, beforeObjs := liveHeap()
	svc := certa.NewScoringService(f.model, certa.ScoringServiceOptions{})
	n, err := svc.Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	after, afterObjs := liveHeap()
	runtime.KeepAlive(svc)
	runtime.KeepAlive(&snap)

	const bound = 200
	perScore := float64(after-before) / float64(n)
	objs := afterObjs - beforeObjs
	t.Logf("%d scores restored, %.0f live heap bytes each (bound %d), %d heap objects", n, perScore, bound, objs)
	if n == 0 || perScore > bound {
		t.Errorf("a restored score holds %.0f bytes of live heap over %d scores, want <= %d", perScore, n, bound)
	}
	if objs >= int64(n) {
		t.Errorf("restoring %d scores added %d heap objects, want fewer than the scores", n, objs)
	}
}
