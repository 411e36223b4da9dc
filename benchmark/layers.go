package main

import (
	"runtime"
	"strings"

	"certa"
)

// unattributedTolerancePct is how much of the worker or explain time
// the named top-level stages may leave uncovered before a traced run
// warns that the trace no longer reconciles with the wall time.
const unattributedTolerancePct = 10

// layerInput is what one traced window measured, gathered from span
// trees (batch) or from /v1/metrics deltas (serve and ring). One
// function maps it onto the per-layer catalogue, so every workload
// defines each metric the same way.
type layerInput struct {
	// expl counts explanations delivered in the window, the divisor
	// of every per-explanation figure.
	expl    float64
	stageMS map[string]float64 // busy time per engine stage

	trianglesSelfMS, latticeSelfMS, modelSelfMS float64
	unattributedPct, overheadPct                float64

	svc                     certa.ScoringServiceStats
	entries                 float64
	embedLookups, embedHits float64
	featurizeRows           float64
	forwardRows             float64

	// Serving layers (zero without a server).
	handlerMS, handlerN      float64
	explainMS, explainN      float64
	served, coalesced        float64
	memoLookups, memoHits    float64
	rejected, queueHighWater float64

	// Routing layer (zero without a router).
	routerMS, routerN float64
	failovers         float64
	shardRequests     []float64

	lateMaxMS, clientMinusMS, sloRPS float64
}

func layerValues(in layerInput) values {
	per := func(x float64) float64 { return ratio(x, in.expl) }
	st := in.stageMS
	latticeMS := st["lattice/L"] + st["lattice/R"]
	v := values{
		"neighborhood.rank_ms_per_expl":        per(st["retrieval/rank"]),
		"core.original_score_ms_per_expl":      per(st["original_score"]),
		"core.triangles_ms_per_expl":           per(st["triangles"]),
		"core.triangles_self_ms_per_expl":      per(in.trianglesSelfMS),
		"core.retrieval_natural_ms_per_expl":   per(st["retrieval/natural"]),
		"core.retrieval_augmented_ms_per_expl": per(st["retrieval/augmented"]),
		"core.counterfactuals_ms_per_expl":     per(st["counterfactuals"]),
		"lattice.ms_per_expl":                  per(latticeMS),
		"lattice.self_ms_per_expl":             per(in.latticeSelfMS),
		"scorecache.lookups_per_expl":          per(float64(in.svc.Lookups)),
		"scorecache.hit_rate":                  ratio(float64(in.svc.Hits), float64(in.svc.Lookups)),
		"scorecache.rows_per_batch":            ratio(float64(in.svc.Misses), float64(in.svc.Batches)),
		"scorecache.memo_ms_per_expl":          per(st["memo"]),
		"scorecache.model_ms_per_expl":         per(st["model"]),
		"scorecache.model_self_ms_per_expl":    per(in.modelSelfMS),
		"scorecache.flip_lookups_per_expl":     per(float64(in.svc.FlipLookups)),
		"scorecache.flip_hit_rate":             ratio(float64(in.svc.FlipHits), float64(in.svc.FlipLookups)),
		"scorecache.entries":                   in.entries,
		"scorecache.evictions":                 float64(in.svc.Evictions),
		"matchers.featurize_ms_per_expl":       per(st["featurize"]),
		"matchers.featurize_rows_per_expl":     per(in.featurizeRows),
		"embedding.hit_rate":                   ratio(in.embedHits, in.embedLookups),
		"nn.forward_ms_per_expl":               per(st["forward"]),
		"nn.forward_ns_per_row":                ratio(st["forward"]*1e6, in.forwardRows),
		"server.handler_ms_mean":               ratio(in.handlerMS, in.handlerN),
		"server.explain_ms_mean":               ratio(in.explainMS, in.explainN),
		"server.admission_wait_ms":             max(ratio(in.handlerMS-in.explainMS, in.served), 0),
		"server.queue_high_water":              in.queueHighWater,
		"server.coalesced_ratio":               ratio(in.coalesced, in.handlerN),
		"server.result_memo_hit_rate":          ratio(in.memoHits, in.memoLookups),
		"server.rejected":                      in.rejected,
		"cluster.router_ms_mean":               ratio(in.routerMS, in.routerN),
		"cluster.hop_ms":                       0,
		"cluster.shard_skew":                   skew(in.shardRequests),
		"cluster.failovers":                    in.failovers,
		"telemetry.trace_overhead_pct":         in.overheadPct,
		"trace.unattributed_pct":               in.unattributedPct,
		"loadgen.late_ms_max":                  in.lateMaxMS,
		"loadgen.client_minus_handler_ms":      in.clientMinusMS,
		"loadgen.slo_rps":                      in.sloRPS,
	}
	if in.routerN > 0 {
		v["cluster.hop_ms"] = ratio(in.routerMS, in.routerN) - ratio(in.handlerMS, in.handlerN)
	}
	return v
}

// stageInput fills the stage figures of a serve window from a scrape
// delta of the workers' certa_stage_duration_seconds histograms. The
// scrapes carry per-stage totals but no tree, so a self time here is
// a stage's total minus its direct children's totals; where children
// overlap (parallel scoring shards) that undercounts, so it is floored
// at zero and reads as a lower bound.
func stageInput(in *layerInput, d scrape) {
	in.stageMS = map[string]float64{}
	for stage, sec := range d.byLabel("certa_stage_duration_seconds_sum", "stage") {
		if stage != "" {
			in.stageMS[stage] = 1000 * sec
		}
	}
	st := in.stageMS
	var levels float64
	for name, v := range st {
		if strings.HasPrefix(name, "lattice/level") {
			levels += v
		}
	}
	in.trianglesSelfMS = max(st["triangles"]-st["retrieval/natural"]-st["retrieval/augmented"], 0)
	in.latticeSelfMS = max(st["lattice/L"]+st["lattice/R"]-levels, 0)
	in.modelSelfMS = max(st["model"]-st["featurize"]-st["forward"], 0)
	var top float64
	for _, name := range topLevelStages {
		top += st[name]
	}
	explainMS := 1000 * d.sum("certa_explain_duration_seconds_sum")
	if explainMS > 0 {
		in.unattributedPct = 100 * (1 - top/explainMS)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// skew is the busiest member's load over the mean load (1 = even).
func skew(loads []float64) float64 {
	var sum, hi float64
	for _, l := range loads {
		sum += l
		hi = max(hi, l)
	}
	if sum == 0 {
		return 0
	}
	return hi / (sum / float64(len(loads)))
}

// heapLiveMB is the live heap after a full collection, in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
