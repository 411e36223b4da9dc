package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestAgreeVerdict(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "expl_per_s", Better: "higher", Bound: 0.1}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	steady := []float64{100, 100, 101, 99, 100}
	for _, tc := range []struct {
		m    specMetric
		a, b []float64
		ok   bool
	}{
		{lower, steady, steady, true},
		{lower, steady, []float64{109, 109, 109, 109, 109}, true},  // 9% worse
		{lower, steady, []float64{112, 112, 112, 112, 112}, false}, // 12% worse
		{lower, steady, []float64{80, 80, 80, 80, 80}, true},       // better
		{higher, steady, []float64{88, 88, 88, 88, 88}, false},     // 12% fewer
		{higher, steady, []float64{120, 120, 120, 120, 120}, true},
		{lower, steady, []float64{60, 80, 100, 120, 140}, false}, // spread 60%
		{setup, steady, []float64{60, 80, 100, 120, 140}, true},  // set-up spread is exempt
	} {
		if got := agreeVerdict(tc.m, tc.a, tc.b); (got == "ok") != tc.ok {
			t.Errorf("%s %v vs %v: %q, want ok=%v", tc.m.Name, tc.a, tc.b, got, tc.ok)
		}
	}
}

func TestRunAgreeReadsRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		path := filepath.Join(dir, name)
		for i, v := range values {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]measurement{}}
			for _, m := range endToEnd {
				res.Metrics[m.name] = measurement{Value: v, Unit: m.unit}
			}
			if err := appendRecord(path, "batch-cold", newProfile(1, int64(i+1), false), false, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", 10, 10, 10, 10, 10)
	same := write("same.jsonl", 10, 10, 10, 10, 10)
	var out bytes.Buffer
	if code := runAgree([]string{"-spec", specFile, a, same}, &out); code != 0 {
		t.Errorf("identical sets disagree (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "batch-cold") {
		t.Errorf("no row for the workload:\n%s", out.String())
	}
	// Every metric moved by half: the lower-is-better ones got worse.
	worse := write("worse.jsonl", 15, 15, 15, 15, 15)
	out.Reset()
	if code := runAgree([]string{"-spec", specFile, a, worse}, &out); code != 1 {
		t.Errorf("a 50%% shift agrees (exit %d):\n%s", code, out.String())
	}
}
