package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the workloads, and the metrics with
// their direction and, end to end, the share of the baseline median by
// which a metric may worsen before a change counts as a regression.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords loads an -out file: one JSON record per run.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runAgree compares two sets of end-to-end runs of one commit: for
// every workload and metric it prints each set's median, quartiles and
// range, the spread (quartile distance over the median) against the
// metric's bound, and whether set B's median lies within A's median
// and bound. It exits 1 if any metric disagrees.
//
//	benchmark agree -spec ../BENCHMARK.json A.jsonl B.jsonl
func runAgree(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("agree", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		warnf("usage: benchmark agree [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		warnf("%v", err)
		return 2
	}
	var sets [2]map[string]map[string][]float64 // workload → metric → values
	for i, path := range fs.Args() {
		recs, err := readRecords(path)
		if err != nil {
			warnf("%v", err)
			return 2
		}
		sets[i] = map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if sets[i][r.Workload] == nil {
				sets[i][r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				sets[i][r.Workload][name] = append(sets[i][r.Workload][name], m.Value)
			}
		}
	}
	var names []string
	for w := range sets[0] {
		names = append(names, w)
	}
	sort.Strings(names)
	ok := true
	fmt.Fprintf(stdout, "%-13s %-21s %3s %12s %12s %12s %12s %12s %7s %6s  %s\n",
		"workload", "metric", "set", "median", "q1", "q3", "min", "max", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][w][m.Name], sets[1][w][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(stdout, "%-13s %-21s missing from a set\n", w, m.Name)
				ok = false
				continue
			}
			verdict := agreeVerdict(m, a, b)
			if verdict != "ok" {
				ok = false
			}
			for i, xs := range [][]float64{a, b} {
				q1, q3 := quartiles(xs)
				med := median(xs)
				lo, hi := minMax(xs)
				v := ""
				if i == 1 {
					v = verdict
				}
				fmt.Fprintf(stdout, "%-13s %-21s %3s %12.5g %12.5g %12.5g %12.5g %12.5g %6.1f%% %5.0f%%  %s\n",
					w, m.Name, string(rune('A'+i)), med, q1, q3, lo, hi, 100*spreadOf(xs), 100*m.Bound, v)
			}
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// agreeVerdict applies the acceptance rule to one metric: each set's
// spread within the bound (set-up time excepted), and B's median no
// worse than A's by more than the bound.
func agreeVerdict(m specMetric, a, b []float64) string {
	if m.Name != "setup_s" {
		for _, xs := range [][]float64{a, b} {
			if s := spreadOf(xs); s > m.Bound {
				return fmt.Sprintf("SPREAD %.1f%% > bound", 100*s)
			}
		}
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return fmt.Sprintf("B WORSE by %.1f%%", 100*worse)
	}
	return "ok"
}

// spreadOf is the distance between the quartiles as a share of the
// median.
func spreadOf(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
