package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root declares the same names with their direction and
// regression bounds; smoke_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them when run with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"expl_per_s", "expl/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"model_calls_per_expl", "calls/expl"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the single-layer metrics of the traced run (-trace 1).
// Every workload reports all of them; a layer the workload never
// reaches (the router on a single server, say) reads 0.
var perLayer = []metricDef{
	{"neighborhood.rank_ms_per_expl", "ms/expl"},
	{"core.original_score_ms_per_expl", "ms/expl"},
	{"core.triangles_ms_per_expl", "ms/expl"},
	{"core.triangles_self_ms_per_expl", "ms/expl"},
	{"core.retrieval_natural_ms_per_expl", "ms/expl"},
	{"core.retrieval_augmented_ms_per_expl", "ms/expl"},
	{"core.counterfactuals_ms_per_expl", "ms/expl"},
	{"lattice.ms_per_expl", "ms/expl"},
	{"lattice.self_ms_per_expl", "ms/expl"},
	{"scorecache.lookups_per_expl", "lookups/expl"},
	{"scorecache.hit_rate", "ratio"},
	{"scorecache.rows_per_batch", "rows/batch"},
	{"scorecache.memo_ms_per_expl", "ms/expl"},
	{"scorecache.model_ms_per_expl", "ms/expl"},
	{"scorecache.model_self_ms_per_expl", "ms/expl"},
	{"scorecache.flip_lookups_per_expl", "lookups/expl"},
	{"scorecache.flip_hit_rate", "ratio"},
	{"scorecache.entries", "count"},
	{"scorecache.evictions", "count"},
	{"matchers.featurize_ms_per_expl", "ms/expl"},
	{"matchers.featurize_rows_per_expl", "rows/expl"},
	{"embedding.hit_rate", "ratio"},
	{"nn.forward_ms_per_expl", "ms/expl"},
	{"nn.forward_ns_per_row", "ns/row"},
	{"server.handler_ms_mean", "ms/req"},
	{"server.explain_ms_mean", "ms/req"},
	{"server.admission_wait_ms", "ms/req"},
	{"server.queue_high_water", "count"},
	{"server.coalesced_ratio", "ratio"},
	{"server.result_memo_hit_rate", "ratio"},
	{"server.rejected", "count"},
	{"cluster.router_ms_mean", "ms/req"},
	{"cluster.hop_ms", "ms/req"},
	{"cluster.shard_skew", "ratio"},
	{"cluster.failovers", "count"},
	{"telemetry.trace_overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.client_minus_handler_ms", "ms/req"},
	{"loadgen.slo_rps", "req/s"},
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the summary of one run, printed as the last line of
// standard output. Its keys are the benchmark's output contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// values collects one run's metrics by name before they are matched
// against a catalogue.
type values map[string]float64

// fill copies the catalogued metrics out of v, with their units. A
// catalogued metric missing from v is a harness bug, so it is an
// error rather than a silent zero; so is a value that is not finite.
func fill(into map[string]measurement, defs []metricDef, v values) error {
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", d.name, x)
		}
		into[d.name] = measurement{Value: x, Unit: d.unit}
	}
	return nil
}

// printLines writes one "workload metric value unit" line per metric,
// sorted by name.
func printLines(w io.Writer, workload string, metrics map[string]measurement) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", workload, n, formatValue(m.Value), m.Unit)
	}
}

// formatValue prints a value with every digit it was measured with.
func formatValue(x float64) string {
	b, _ := json.Marshal(x) // finite by construction (fill rejects the rest)
	return string(b)
}
