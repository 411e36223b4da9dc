package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"certa"
	"certa/internal/telemetry"
)

// topLevelStages are the stages an explanation's own spans open
// directly under its root; what they do not cover is unattributed.
var topLevelStages = []string{"original_score", "triangles", "lattice/L", "lattice/R", "counterfactuals"}

// callSize is how many pairs one batch-cold call explains: half a
// blocked cluster, so a run times 16 calls a pass and well over the
// minSamples that p90 needs.
const callSize = 8

// runBatchCold is the paper's offline use: closed-loop ExplainBatch
// calls, one per half of a blocked cluster of the pool, each on a fresh
// scoring service while the model and its candidate index live for the
// run. Every model call is paid once per call, so retrieval, triangles,
// lattice, featurize and forward all do their full work. A pass
// explains the whole pool once, in a seeded call and pair order. p50
// and p90 are over calls: how long a caller waits for a batch.
func runBatchCold(ctx context.Context, p profile, traced bool) (*outcome, error) {
	d, setupS, err := timedSetup(p.setupReps,
		func() (*deployment, error) { return newDeployment(p.poolSeeds) },
		func(*deployment) {})
	if err != nil {
		return nil, err
	}
	calls := splitCalls(d.clusters)
	warmS, err := timed(func() error { return warmBatch(ctx, d, calls) })
	if err != nil {
		return nil, err
	}
	reportSetup("batch-cold", setupS, warmS, p.setupReps)
	setupS += warmS
	refs, err := d.reference(d.pool)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refOf := make(map[string]*certa.Result, len(refs))
	for i, pr := range d.pool {
		refOf[pr.Key()] = refs[i]
	}

	b := &batchRun{ctx: ctx, d: d, calls: calls, rng: rand.New(rand.NewSource(p.seed)), refOf: refOf}
	// The traced run alternates untraced and traced passes, so the
	// tracing overhead is measured on interleaved, equal work; it needs
	// one of each at least.
	minPasses := 1
	if traced {
		minPasses = 2
	}
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	more := func(pass int) bool {
		switch {
		case pass < minPasses:
			return true
		case p.quick:
			return false
		case !traced && len(b.latencies) < minSamples:
			return true // passes past the deadline until p90 is supported
		}
		return time.Now().Before(deadline)
	}
	for pass := 0; more(pass); pass++ {
		if err := b.pass(traced && pass%2 == 1); err != nil {
			return nil, err
		}
	}
	out := &outcome{attempted: b.attempted, failed: b.failed, checkErr: b.checkErr}
	b.refOf = nil // not part of the system's live heap
	if traced {
		out.values = layerValues(b.layers())
		return out, nil
	}
	lat := append([]float64(nil), b.latencies...)
	p50, _ := percentile(lat, 50)
	p90, ok := percentile(lat, 90)
	reportSamples("batch-cold", len(lat), ok)
	out.values = values{
		"setup_s":              setupS,
		"expl_per_s":           float64(len(d.pool)*len(b.plainWalls)) / sum(b.plainWalls),
		"p50_ms":               p50,
		"p90_ms":               p90,
		"model_calls_per_expl": float64(b.misses) / float64(b.explained),
		"heap_live_mb":         heapLiveMB(),
	}
	runtime.KeepAlive(d) // the deployment is the live heap being measured
	return out, nil
}

// splitCalls cuts every cluster into calls of at most callSize pairs,
// the same way on every run, so each call's unique model calls are the
// same on every run too.
func splitCalls(clusters [][]certa.Pair) [][]certa.Pair {
	var calls [][]certa.Pair
	for _, c := range clusters {
		for len(c) > callSize {
			calls = append(calls, c[:callSize])
			c = c[callSize:]
		}
		calls = append(calls, c)
	}
	return calls
}

// warmBatch is batch-cold's warm-up, part of its set-up: one pass over
// the pool, call by call as the measured passes make them, which fills
// the model's embedding store. Its answers are not kept.
func warmBatch(ctx context.Context, d *deployment, calls [][]certa.Pair) error {
	for _, pairs := range calls {
		opts := d.options()
		opts.Shared = d.newService()
		if _, err := certa.ExplainBatchContext(ctx, d.model, d.bench.Left, d.bench.Right, pairs, opts); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// batchRun accumulates one batch-cold run.
type batchRun struct {
	ctx   context.Context
	d     *deployment
	calls [][]certa.Pair
	rng   *rand.Rand
	refOf map[string]*certa.Result

	attempted, failed int
	checkErr          error

	plainWalls, tracedWalls []float64 // pass times, seconds
	latencies               []float64 // per call: its wall time, ms
	misses, explained       int

	// Traced passes only.
	tracedExpl              int
	stages                  map[string]telemetry.StageTotal
	self                    map[string]float64
	svc                     certa.ScoringServiceStats
	entries                 int
	embedLookups, embedHits int
	attributedMS, workerMS  float64
	outsideMS               float64 // call wall outside the engine's stage window
	tracedCalls             int
	lateMaxMS               float64
	lastReturn              time.Time
}

// pass explains the whole pool once, one ExplainBatch call per entry
// of b.calls. Only the calls are timed; checking their results against
// the reference happens between them.
func (b *batchRun) pass(traced bool) error {
	var wall time.Duration
	b.lastReturn = time.Time{}
	for _, ci := range b.rng.Perm(len(b.calls)) {
		call := b.calls[ci]
		pairs := make([]certa.Pair, len(call))
		for i, j := range b.rng.Perm(len(call)) {
			pairs[i] = call[j]
		}
		el, err := b.call(pairs, traced)
		if err != nil {
			return err
		}
		wall += el
	}
	if traced {
		b.tracedWalls = append(b.tracedWalls, wall.Seconds())
	} else {
		b.plainWalls = append(b.plainWalls, wall.Seconds())
	}
	return nil
}

func (b *batchRun) call(pairs []certa.Pair, traced bool) (time.Duration, error) {
	d := b.d
	svc := d.newService()
	opts := d.options()
	opts.Shared = svc
	ctx := b.ctx
	var tr *telemetry.Trace
	embedBefore := d.model.EmbeddingStats()
	if traced {
		tr = telemetry.New()
		ctx = telemetry.WithTrace(ctx, tr)
	}
	start := time.Now()
	if !b.lastReturn.IsZero() {
		b.lateMaxMS = max(b.lateMaxMS, ms(start.Sub(b.lastReturn)))
	}
	res, err := certa.ExplainBatchContext(ctx, d.model, d.bench.Left, d.bench.Right, pairs, opts)
	el := time.Since(start)
	b.lastReturn = time.Now()
	b.attempted += len(pairs)
	if err != nil {
		if b.ctx.Err() != nil {
			return 0, b.ctx.Err()
		}
		b.failed += len(pairs)
		return el, nil
	}
	want := make([]*certa.Result, len(pairs))
	for i, p := range pairs {
		want[i] = b.refOf[p.Key()]
	}
	if cerr := checkResults(pairs, want, res); cerr != nil && b.checkErr == nil {
		b.checkErr = cerr
	}
	st := svc.Stats()
	if !traced {
		b.latencies = append(b.latencies, ms(el))
		b.misses += st.Misses
		b.explained += len(pairs)
		return el, nil
	}

	tr.Root().End()
	embedAfter := d.model.EmbeddingStats()
	b.tracedExpl += len(pairs)
	b.tracedCalls++
	if b.stages == nil {
		b.stages = make(map[string]telemetry.StageTotal)
		b.self = make(map[string]float64)
	}
	for name, t := range tr.Stages() {
		agg := b.stages[name]
		agg.Duration += t.Duration
		agg.Count += t.Count
		agg.Items += t.Items
		b.stages[name] = agg
	}
	tree := tr.Tree()
	addSelfTimes(tree, b.self)
	lo, hi := -1.0, 0.0
	for _, c := range tree.Children {
		b.attributedMS += c.DurationMS
		if lo < 0 || c.StartMS < lo {
			lo = c.StartMS
		}
		hi = max(hi, c.StartMS+c.DurationMS)
	}
	b.workerMS += engineParallelism * ms(el)
	b.outsideMS += ms(el) - max(hi-lo, 0)
	b.svc.Lookups += st.Lookups
	b.svc.Hits += st.Hits
	b.svc.Misses += st.Misses
	b.svc.Batches += st.Batches
	b.svc.Evictions += st.Evictions
	b.svc.FlipLookups += st.FlipLookups
	b.svc.FlipHits += st.FlipHits
	b.entries += svc.Len()
	b.embedLookups += embedAfter.Lookups - embedBefore.Lookups
	b.embedHits += embedAfter.Hits - embedBefore.Hits
	return el, nil
}

// layers maps the traced passes onto the per-layer catalogue.
func (b *batchRun) layers() layerInput {
	in := layerInput{
		expl:          float64(b.tracedExpl),
		stageMS:       map[string]float64{},
		svc:           b.svc,
		entries:       float64(b.entries) / float64(max(b.tracedCalls, 1)),
		embedLookups:  float64(b.embedLookups),
		embedHits:     float64(b.embedHits),
		featurizeRows: float64(b.stages["featurize"].Items),
		forwardRows:   float64(b.stages["forward"].Items),
		lateMaxMS:     b.lateMaxMS,
		clientMinusMS: b.outsideMS / float64(max(b.tracedCalls, 1)),
	}
	for name, t := range b.stages {
		in.stageMS[name] = ms(t.Duration)
	}
	in.trianglesSelfMS = b.self["triangles"]
	in.latticeSelfMS = b.self["lattice/L"] + b.self["lattice/R"]
	in.modelSelfMS = b.self["model"]
	in.unattributedPct = 100 * (1 - b.attributedMS/b.workerMS)
	if plain, tracedW := median(b.plainWalls), median(b.tracedWalls); plain > 0 {
		in.overheadPct = 100 * (tracedW/plain - 1)
	}
	return in
}
