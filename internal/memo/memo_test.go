package memo

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"certa/internal/embedding"
)

func fittedEmbedder() *embedding.Embedder {
	e := embedding.New(16)
	e.Fit([]string{"apple pie with cream", "apple tart", "cream soda"})
	return e
}

// TestMemoBitIdentical: memoized vectors are the exact bytes the bare
// embedder produces, so memoization is invisible to scoring.
func TestMemoBitIdentical(t *testing.T) {
	emb := fittedEmbedder()
	m := New[string, []float64]()
	texts := []string{"apple pie", "cream", "", "apple pie", "zebra 42"}
	for _, s := range texts {
		got := m.Get(s, emb.Text)
		want := emb.Text(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%q) = %v, want %v", s, got, want)
		}
	}
	if st := m.Stats(); st != (Stats{Lookups: 5, Hits: 1, Misses: 4, Entries: 4}) {
		t.Fatalf("stats = %+v, want 5 lookups / 1 hit / 4 misses / 4 entries", st)
	}
}

// TestMemoConcurrent hammers one memo from many goroutines (run under
// -race in CI), checks every returned vector against the pure
// embedder, and checks that the counters add up: every lookup is a hit
// or a miss, and there is one miss per distinct key.
func TestMemoConcurrent(t *testing.T) {
	emb := fittedEmbedder()
	m := New[string, []float64]()
	keys := make([]string, 40)
	want := make(map[string][]float64, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("item %d of corpus", i)
		want[keys[i]] = emb.Text(keys[i])
	}
	const goroutines, gets = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < gets; i++ {
				k := keys[(g*7+i)%len(keys)]
				if !reflect.DeepEqual(m.Get(k, emb.Text), want[k]) {
					t.Error("concurrent Get diverged from Embedder.Text")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Lookups != goroutines*gets || st.Lookups != st.Hits+st.Misses {
		t.Fatalf("stats = %+v, want %d lookups = hits + misses", st, goroutines*gets)
	}
	if st.Entries != len(keys) || st.Misses != len(keys) {
		t.Fatalf("stats = %+v, want %d entries and misses", st, len(keys))
	}
}

// TestMemoArrayKeys: a composite key (the DeepMatcher block memo's
// value pair) memoizes by content, and an inline array value comes back
// whole.
func TestMemoArrayKeys(t *testing.T) {
	m := New[[2]string, [3]float64]()
	calls := 0
	f := func(k [2]string) [3]float64 {
		calls++
		return [3]float64{float64(len(k[0])), float64(len(k[1])), 1}
	}
	a := m.Get([2]string{"ab", "c"}, f)
	b := m.Get([2]string{"ab", "c"}, f)
	c := m.Get([2]string{"a", "bc"}, f)
	if a != ([3]float64{2, 1, 1}) || b != a || c != ([3]float64{1, 2, 1}) || calls != 2 {
		t.Fatalf("got %v %v %v after %d calls", a, b, c, calls)
	}
}
