package main

import (
	"fmt"
	"time"

	"certa"
)

// The deployment every workload serves is fixed: AB at certa-serve's
// default scale, DeepMatcher, τ = 100, exact mode, all under one seed.
// The run's -seed drives the request stream instead, so run-to-run
// spread comes from the machine and the traffic rather than from a
// different dataset and model on every run.
const (
	deploySeed = 7
	maxRecords = 300
	maxMatches = 150
	triangles  = 100
	clusterK   = 4
	// engineParallelism is the engine's and the scoring services'
	// Parallelism: every explanation runs on one goroutine, and
	// concurrency comes from concurrent requests (MaxInFlight) instead.
	// On a shared 2-vCPU machine, batch passes explained at Parallelism
	// 1 and 2 in alternation for 12 minutes varied by 6–10% from one
	// stretch of passes to the next at 1 and by 11–15% at 2: a parallel
	// explanation waits for its slowest worker, so it feels every stall
	// of either vCPU.
	engineParallelism = 1
)

// keyspace is what a router needs: the sources and the pool.
type keyspace struct {
	bench *certa.Benchmark
	// clusters is the pool split by the test pair each part was
	// blocked around; pool is their concatenation.
	clusters [][]certa.Pair
	pool     []certa.Pair
}

// deployment is one serving process's state: the keyspace plus its
// own trained model and candidate index.
type deployment struct {
	keyspace
	model *certa.Matcher
	index *certa.CandidateIndex
}

// newKeyspace generates the dataset and the pool: the union of the
// k = 4 blocked clusters around the first poolSeeds test pairs, each
// pair kept in the first cluster it appears in.
func newKeyspace(poolSeeds int) (keyspace, error) {
	bench, err := certa.GenerateBenchmark("AB", certa.BenchmarkOptions{
		Seed: deploySeed, MaxRecords: maxRecords, MaxMatches: maxMatches,
	})
	if err != nil {
		return keyspace{}, err
	}
	if poolSeeds > len(bench.Test) {
		return keyspace{}, fmt.Errorf("pool needs %d test pairs, AB has %d", poolSeeds, len(bench.Test))
	}
	ks := keyspace{bench: bench}
	seen := make(map[string]bool)
	for i := 0; i < poolSeeds; i++ {
		pairs, err := certa.BlockedClusterPairs(bench.Left, bench.Right, bench.Test[i].Pair, clusterK)
		if err != nil {
			return keyspace{}, err
		}
		var c []certa.Pair
		for _, p := range pairs {
			if k := p.Key(); !seen[k] {
				seen[k] = true
				c = append(c, p)
			}
		}
		if len(c) > 0 {
			ks.clusters = append(ks.clusters, c)
			ks.pool = append(ks.pool, c...)
		}
	}
	return ks, nil
}

func newDeployment(poolSeeds int) (*deployment, error) {
	ks, err := newKeyspace(poolSeeds)
	if err != nil {
		return nil, err
	}
	model, err := certa.TrainMatcher(certa.DeepMatcher, ks.bench, certa.MatcherConfig{Seed: deploySeed})
	if err != nil {
		return nil, err
	}
	return &deployment{
		keyspace: ks,
		model:    model,
		index:    certa.NewCandidateIndex(ks.bench.Left, ks.bench.Right),
	}, nil
}

// options are the engine options every workload explains with.
func (d *deployment) options() certa.Options {
	return certa.Options{Triangles: triangles, Seed: deploySeed, Parallelism: engineParallelism, Retrieval: d.index}
}

// newService is a fresh scoring service for d's model.
func (d *deployment) newService() *certa.ScoringService {
	return certa.NewScoringService(d.model, certa.ScoringServiceOptions{Parallelism: engineParallelism})
}

// reference explains pairs the plainest way the library allows: one
// worker, no shared scoring service, an index of its own. Every
// answer a workload receives must equal it.
func (d *deployment) reference(pairs []certa.Pair) ([]*certa.Result, error) {
	return certa.ExplainBatch(d.model, d.bench.Left, d.bench.Right, pairs, certa.Options{
		Triangles: triangles, Seed: deploySeed, Parallelism: 1,
	})
}

// timedSetup builds reps instances one after another, keeps the last
// and releases the rest, and returns the median build time in seconds:
// set-up is measured as often as it is cheap to, so work moved into it
// shows against a steady figure. The warm-up that follows a build runs
// once, timed by timed: at 3.5–8.5 s it is the costliest part of set-up,
// and three of it per run would not fit the benchmark's time budget.
func timedSetup[T any](reps int, build func() (T, error), release func(T)) (T, float64, error) {
	var (
		kept  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			release(kept)
		}
		kept = v
	}
	return kept, median(times), nil
}

// reportSetup states on standard error what setup_s is made of.
func reportSetup(workload string, buildS, warmS float64, reps int) {
	warnf("%s: set-up %.2fs: build %.2fs (median of %d) + warm-up %.2fs", workload, buildS+warmS, buildS, reps, warmS)
}

// timed runs f and returns how long it took, in seconds.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}
