package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readRegistry renders r and reads the render back.
func readRegistry(t *testing.T, r *Registry) *Exposition {
	t.Helper()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	e, err := ReadExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWriteMergedRoundTrip: the golden exposition, read and written
// back as a merge of one, is byte-identical, and its histogram's
// _bucket, _sum and _count samples are read into the histogram's own
// family rather than families of their own.
func TestWriteMergedRoundTrip(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "exposition_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := ReadExposition(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if types := strings.Count(string(golden), "# TYPE "); len(e.Families) != types {
		t.Fatalf("read %d families from %d TYPE lines", len(e.Families), types)
	}
	h := e.Family("certa_test_latency_seconds")
	if h == nil || h.Type != "histogram" || len(h.Samples) != 6 || h.Samples[5].Name != "certa_test_latency_seconds_count" {
		t.Fatalf("histogram family = %+v, want 4 buckets, _sum and _count", h)
	}
	if got := e.Sum("certa_test_latency_seconds_bucket", Labels{"le": "0.05"}); got != 2 {
		t.Fatalf(`bucket{le="0.05"} = %v, want 2`, got)
	}
	var buf bytes.Buffer
	if err := WriteMerged(&buf, e); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(golden) {
		t.Errorf("round trip drifted:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), golden)
	}
}

// TestWriteMergedFederates merges two labeled sources the way the
// router federates workers: one HELP and one TYPE line per family,
// families sorted and samples in source order, a family whose TYPE
// clashes with the first declaration left out, a worker name that needs
// escaping read back verbatim, an existing worker label kept as
// exported_worker, and a count of 2,500,000 passed through as plain
// decimal.
func TestWriteMergedFederates(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	for _, r := range []*Registry{a, b} {
		r.Histogram("certa_test_latency_seconds", "Latency.", nil, []float64{1}).Observe(0.5)
		r.Gauge("certa_test_healthy", "Health.", Labels{"worker": "inner"}).Set(1)
	}
	a.Counter("certa_test_served_total", "Served.", nil).Add(2_500_000)
	b.Counter("certa_test_served_total", "Served.", nil).Inc()
	a.Counter("certa_test_clash", "Counter here.", nil).Inc()
	b.Gauge("certa_test_clash", "Gauge there.", nil).Set(7)
	odd := "w\"1\\\n"
	ea, eb := readRegistry(t, a), readRegistry(t, b)
	ea.AddLabel("worker", "w0")
	eb.AddLabel("worker", odd)

	var buf bytes.Buffer
	if err := WriteMerged(&buf, ea, nil, eb); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	var order []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			order = append(order, strings.Fields(rest)[0])
		}
	}
	if got, want := strings.Join(order, " "), "certa_test_clash certa_test_healthy certa_test_latency_seconds certa_test_served_total"; got != want {
		t.Fatalf("TYPE lines %q, want one per family in order %q", got, want)
	}
	if n := strings.Count(text, "# HELP "); n != len(order) {
		t.Fatalf("%d HELP lines for %d families", n, len(order))
	}
	for _, want := range []string{
		"certa_test_served_total{worker=\"w0\"} 2500000\n",
		`certa_test_served_total{worker="w\"1\\\n"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged text lacks %q:\n%s", want, text)
		}
	}

	e, err := ReadExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("merged output does not read back: %v\n%s", err, text)
	}
	if s := e.Family("certa_test_served_total").Samples; len(s) != 2 || s[0].Labels["worker"] != "w0" || s[1].Labels["worker"] != odd {
		t.Fatalf("served samples = %+v, want w0 then the escaped name", s)
	}
	if got := e.Sum("certa_test_latency_seconds_count", nil); got != 2 {
		t.Fatalf("merged histogram count = %v, want 2", got)
	}
	if got := e.Sum("certa_test_healthy", Labels{"exported_worker": "inner", "worker": odd}); got != 1 {
		t.Fatal("an existing worker label was not kept as exported_worker")
	}
	if clash := e.Family("certa_test_clash"); clash.Type != "counter" || len(clash.Samples) != 1 {
		t.Fatalf("clashing family = %+v, want the counter alone", clash)
	}
}

// TestReadExpositionRejectsMalformed: a body cut off anywhere but a
// line boundary, or holding a malformed line, is an error — never a
// shorter scrape. The router treats the error as a failed worker.
func TestReadExpositionRejectsMalformed(t *testing.T) {
	r := NewRegistry()
	r.Counter("certa_test_total", "Total.", Labels{"backend": "AB"}).Add(12)
	r.Histogram("certa_test_latency_seconds", "Latency.", nil, []float64{0.5}).Observe(0.25)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	text := buf.String()
	for cut := 1; cut < len(text); cut++ {
		if text[cut-1] == '\n' {
			continue
		}
		if _, err := ReadExposition(strings.NewReader(text[:cut])); err == nil {
			t.Fatalf("body truncated to %q read without error", text[:cut])
		}
	}

	for _, bad := range []string{
		"certa_x\n",
		"certa_x{a=\"1\" 2\n",
		"certa_x{a=1} 2\n",
		"certa_x{a=\"1\"b=\"2\"} 2\n",
		"certa_x{a=\"\\q\"} 2\n",
		"certa_x{a=\"1\"}2\n",
		"certa_x two\n",
		"certa_x 1 1700000000\n",
		"0certa 1\n",
		"# TYPE certa_x widget\n",
	} {
		if _, err := ReadExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed body %q read without error", bad)
		}
	}
}
