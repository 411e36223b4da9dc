package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload in the quick profile, end to end and
// traced, and requires every metric BENCHMARK.json declares to be
// printed, for every workload, with the declared unit. The workloads
// run in parallel: their open-loop steps mostly wait on the schedule.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	declared := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if code := run(context.Background(), []string{"-quick", "-workload", w.Name}, &out); code != 0 {
				t.Fatalf("quick run exited %d:\n%s", code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var summary result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			if !summary.Correct || summary.Failed != 0 || summary.Attempted < 1 {
				t.Errorf("summary: correct %v, attempted %d, failed %d", summary.Correct, summary.Attempted, summary.Failed)
			}
			printed := map[string]string{} // metric → unit
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != w.Name {
					t.Fatalf("line %q is not \"%s metric value unit\"", line, w.Name)
				}
				printed[f[1]] = f[3]
			}
			for _, m := range declared {
				if unit, ok := printed[m.Name]; !ok {
					t.Errorf("%s not printed", m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s printed in %q, declared in %q", m.Name, unit, m.Unit)
				}
			}
			if len(printed) != len(declared) {
				t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(printed), len(declared))
			}
		})
	}
}

// TestSpecContract checks BENCHMARK.json against the rules it must
// keep: its exact keys, name and unit shapes, metric counts, bounds,
// the set-up metric, and agreement with the program's catalogue.
func TestSpecContract(t *testing.T) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want %v", len(keys), want)
	}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's -seconds default is %d", spec.RunSeconds, defaultSeconds)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !namePattern.MatchString(name) || len(name) > 64 {
			t.Errorf("name %q does not match %s (64 at most)", name, namePattern)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var largest float64
	for _, m := range spec.EndToEnd {
		largest = max(largest, m.Bound)
	}
	for i, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound")
		}
		if i >= len(endToEnd) || endToEnd[i] != (metricDef{m.Name, m.Unit}) {
			t.Errorf("end-to-end metric %d is %s (%s) in BENCHMARK.json but not in the program's catalogue", i, m.Name, m.Unit)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for i, m := range spec.PerLayer {
		check(m.Name)
		if i >= len(perLayer) || perLayer[i] != (metricDef{m.Name, m.Unit}) {
			t.Errorf("per-layer metric %d is %s (%s) in BENCHMARK.json but not in the program's catalogue", i, m.Name, m.Unit)
		}
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitPattern.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitPattern)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
}
