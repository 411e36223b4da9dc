package main

import (
	"os"
	"strings"
	"testing"
)

// goldenExposition is the telemetry package's pinned exposition,
// read (never written) as a realistic scrape.
const goldenExposition = "../internal/telemetry/testdata/exposition_golden.txt"

func TestParseGoldenExposition(t *testing.T) {
	f, err := os.Open(goldenExposition)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"certa_test_backend_requests_total", nil, 16},
		{"certa_test_backend_requests_total", []string{"backend", "BA", "model", "RF"}, 9},
		{"certa_test_cache_hits_total", []string{"backend", `q"uo\te`}, 1300},
		{"certa_test_latency_seconds_sum", []string{"backend", "AB"}, 3.075},
		{"certa_test_latency_seconds_count", nil, 4},
		{"certa_test_latency_seconds_bucket", []string{"le", "+Inf"}, 4},
		{"certa_test_queue_depth", nil, 3},
		{"certa_test_uptime_seconds", nil, 12.5},
	} {
		if got := sc.sum(tc.name, tc.match...); got != tc.want {
			t.Errorf("sum(%s %v) = %v, want %v", tc.name, tc.match, got, tc.want)
		}
	}
	if got := sc.byLabel("certa_test_backend_requests_total", "model"); got["SVM"] != 7 || got["RF"] != 9 {
		t.Errorf("byLabel(model) = %v", got)
	}
}

func TestScrapeDelta(t *testing.T) {
	data, err := os.ReadFile(goldenExposition)
	if err != nil {
		t.Fatal(err)
	}
	before, err := parseExposition(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	later := strings.NewReplacer(
		`certa_test_requests_total 42`, `certa_test_requests_total 50`,
		`certa_test_latency_seconds_sum{backend="AB"} 3.075`, `certa_test_latency_seconds_sum{backend="AB"} 4.075`,
	).Replace(string(data)) + "certa_test_new_total{stage=\"model\"} 5\n"
	after, err := parseExposition(strings.NewReader(later))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	for name, want := range map[string]float64{
		"certa_test_requests_total":         8,
		"certa_test_latency_seconds_sum":    1,
		"certa_test_cache_hits_total":       0,
		"certa_test_new_total":              5, // new since before: counts from zero
		"certa_test_backend_requests_total": 0,
	} {
		if got := d.sum(name); got != want {
			t.Errorf("delta %s = %v, want %v", name, got, want)
		}
	}
	both := merge(after, after)
	if got := both.sum("certa_test_requests_total"); got != 100 {
		t.Errorf("merged sum = %v, want 100", got)
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	for _, bad := range []string{
		"certa_x{le=\"1\" 3\n",
		"certa_x{le=1} 3\n",
		"certa_x\n",
		"certa_x{a=\"b\"} notanumber\n",
	} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}
