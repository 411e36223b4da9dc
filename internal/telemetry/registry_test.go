package telemetry

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/exposition_golden.txt from the current output")

// TestExpositionGolden pins the /v1/metrics wire format byte for byte:
// HELP/TYPE lines, sorted family and series order, sorted label keys,
// cumulative le buckets, value formatting. Regenerate deliberately
// with -update-golden after a format change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("certa_test_requests_total", "Requests served.", nil).Add(42)
	r.Counter("certa_test_backend_requests_total", "Per-backend requests.",
		Labels{"model": "SVM", "backend": "AB"}).Add(7)
	r.Counter("certa_test_backend_requests_total", "Per-backend requests.",
		Labels{"backend": "BA", "model": "RF"}).Add(9)
	r.Gauge("certa_test_queue_depth", "Admission queue depth.", nil).Set(3)
	r.GaugeFunc("certa_test_uptime_seconds", "Seconds since boot.", nil, func() float64 { return 12.5 })
	r.CounterFunc("certa_test_cache_hits_total", "Score cache hits.",
		Labels{"backend": `q"uo\te`}, func() float64 { return 1300 })
	h := r.Histogram("certa_test_latency_seconds", "Explain latency.",
		Labels{"backend": "AB"}, []float64{0.005, 0.05, 0.5})
	for _, v := range []float64{0.001, 0.004, 0.07, 3} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestExpositionDeterministic: two renders of the same registry are
// identical — the sorted-series contract the golden test relies on.
func TestExpositionDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, b := range []string{"zz", "aa", "mm", "bb"} {
		r.Counter("certa_test_total", "x", Labels{"backend": b}).Inc()
	}
	var a, b bytes.Buffer
	r.WritePrometheus(&a)
	r.WritePrometheus(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two renders differ:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
	lines := strings.Split(a.String(), "\n")
	var prev string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "certa_test_total{") {
			if prev != "" && ln < prev {
				t.Fatalf("series out of order: %q after %q", ln, prev)
			}
			prev = ln
		}
	}
}

// TestConcurrentUpdates hammers one counter, gauge and histogram from
// 8 goroutines while a scraper renders concurrently; run under -race
// this is the data-race gate for the lock-free hot paths, and the
// final totals check that no increment was lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("certa_race_total", "c", nil)
	g := r.Gauge("certa_race_gauge", "g", nil)
	h := r.Histogram("certa_race_seconds", "h", nil, LatencyBuckets)

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%7) / 100)
				if i%500 == 0 {
					// concurrent registration of the same series and a
					// concurrent scrape must both be safe
					r.Counter("certa_race_total", "c", nil)
					r.WritePrometheus(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter lost updates: got %d want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Fatalf("gauge lost updates: got %v want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram lost observations: got %d want %d", got, workers*iters)
	}
}

// TestConcurrentFirstRegistration exercises the lazy first-creation
// path under -race: N goroutines race to register a fresh series (the
// stageHist request-path pattern) and must all receive the same handle,
// so no observation lands in an orphaned value.
func TestConcurrentFirstRegistration(t *testing.T) {
	const workers = 8
	t.Run("counter", func(t *testing.T) {
		r := NewRegistry()
		var wg sync.WaitGroup
		got := make([]*Counter, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := r.Counter("certa_fresh_total", "c", Labels{"backend": "AB"})
				c.Inc()
				got[w] = c
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if got[w] != got[0] {
				t.Fatalf("worker %d got a different *Counter for the same series", w)
			}
		}
		if n := got[0].Value(); n != workers {
			t.Fatalf("lost increments on racing registration: got %d want %d", n, workers)
		}
	})
	t.Run("histogram", func(t *testing.T) {
		r := NewRegistry()
		var wg sync.WaitGroup
		got := make([]*Histogram, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := r.Histogram("certa_fresh_seconds", "h", Labels{"backend": "AB", "stage": "forward"}, LatencyBuckets)
				h.Observe(0.01)
				got[w] = h
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if got[w] != got[0] {
				t.Fatalf("worker %d got a different *Histogram for the same series", w)
			}
		}
		if n := got[0].Count(); n != workers {
			t.Fatalf("lost observations on racing registration: got %d want %d", n, workers)
		}
	})
}

// TestLargeCountsPlainDecimal: counter values and histogram counts at
// 1e6+ must render in plain decimal, not scientific notation — smoke
// checks parse the _count line with %d.
func TestLargeCountsPlainDecimal(t *testing.T) {
	r := NewRegistry()
	r.Counter("certa_big_total", "c", nil).Add(2_500_000)
	h := r.Histogram("certa_big_seconds", "h", nil, []float64{0.01})
	for i := 0; i < 3; i++ {
		h.Observe(0.005)
	}
	h.total.Add(1_999_997) // simulate 2M observations without the loop
	h.counts[0].Add(1_999_997)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"certa_big_total 2500000\n",
		"certa_big_seconds_count 2000000\n",
		`certa_big_seconds_bucket{le="0.01"} 2000000` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing plain-decimal line %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "e+") {
		t.Fatalf("scientific notation leaked into exposition:\n%s", out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("certa_q_seconds", "q", nil, []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // third bucket
	}
	if p50 := h.Quantile(0.50); p50 <= 0 || p50 > 0.01 {
		t.Fatalf("p50 = %v, want within first bucket (0, 0.01]", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 0.1 || p99 > 1 {
		t.Fatalf("p99 = %v, want within third bucket (0.1, 1]", p99)
	}
	if h.Quantile(1) > 1 {
		t.Fatalf("p100 beyond last bound: %v", h.Quantile(1))
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// Overflow beyond the last finite bound clamps to it.
	h2 := r.Histogram("certa_q2_seconds", "q", nil, []float64{0.01})
	h2.Observe(5)
	if got := h2.Quantile(0.5); got != 0.01 {
		t.Fatalf("overflow quantile = %v, want clamp to 0.01", got)
	}
}

func TestRegistryMisusePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("certa_kind_total", "x", nil)
	mustPanic(t, "kind clash", func() { r.Gauge("certa_kind_total", "x", nil) })
	mustPanic(t, "bad name", func() { r.Counter("0bad", "x", nil) })
	mustPanic(t, "bad label", func() { r.Counter("certa_ok_total", "x", Labels{"0bad": "v"}) })
	mustPanic(t, "empty buckets", func() { r.Histogram("certa_h_seconds", "x", nil, nil) })
	mustPanic(t, "unsorted buckets", func() { r.Histogram("certa_h2_seconds", "x", nil, []float64{1, 1}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestSeriesIdentity: same (name, labels) in any key order resolves to
// the same series; a func re-registration replaces the callback.
func TestSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("certa_id_total", "x", Labels{"a": "1", "b": "2"})
	b := r.Counter("certa_id_total", "x", Labels{"b": "2", "a": "1"})
	if a != b {
		t.Fatal("label key order split one series in two")
	}
	r.GaugeFunc("certa_fn_gauge", "x", nil, func() float64 { return 1 })
	r.GaugeFunc("certa_fn_gauge", "x", nil, func() float64 { return 2 })
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "certa_fn_gauge 2\n") {
		t.Fatalf("func re-registration did not replace callback:\n%s", buf.String())
	}
}
