// Serverclient: stand the explanation-serving subsystem up in-process,
// then act as its HTTP client — a batch of explanations with a
// per-request deadline, a /v1/metrics scrape, and a snapshot/restore
// round trip. The same server runs standalone as cmd/certa-serve.
//
//	go run ./examples/serverclient
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"certa"
	"certa/internal/telemetry"
)

func main() {
	// 1. A benchmark and a trained matcher, as in the quickstart.
	bench, err := certa.GenerateBenchmark("AB", certa.BenchmarkOptions{
		Seed: 42, MaxRecords: 150, MaxMatches: 80,
	})
	if err != nil {
		log.Fatal(err)
	}
	model, err := certa.TrainMatcher(certa.DeepMatcher, bench, certa.MatcherConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The serving subsystem: one backend, its long-lived shared
	//    scoring service, bounded admission. certa-serve wires exactly
	//    this from flags.
	svc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: 4})
	pairs := make([]certa.Pair, len(bench.Test))
	for i, lp := range bench.Test {
		pairs[i] = lp.Pair
	}
	srv, err := certa.NewServer([]certa.ServerBackend{{
		Name: "AB", Left: bench.Left, Right: bench.Right, Model: model,
		Options: certa.Options{Triangles: 100, Seed: 1, Parallelism: 4},
		Pairs:   pairs, Service: svc,
	}}, certa.ServerOptions{MaxInFlight: 4, MaxQueue: 32})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving AB/%s explanations on %s\n\n", model.Name(), base)

	// 3. The batch endpoint with a deadline: four explanations in one
	//    round trip, each allowed 150ms of soft wall clock. A request
	//    the deadline cuts short still answers — truncated to the best
	//    explanation obtainable in time, flagged in its diagnostics.
	batch := certa.BatchRequest{Requests: []certa.ExplainRequest{
		{PairIndex: intp(0), DeadlineMS: 150, TopK: 3},
		{PairIndex: intp(1), DeadlineMS: 150, TopK: 3},
		{PairIndex: intp(2), DeadlineMS: 150, TopK: 3},
		{PairIndex: intp(2), DeadlineMS: 150, TopK: 3}, // duplicate: coalesces with the previous item
	}}
	body, _ := json.Marshal(batch)
	resp, err := http.Post(base+"/v1/explain/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var out certa.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	for i, r := range out.Responses {
		if r.Error != "" {
			fmt.Printf("#%d %s: error: %s\n", i, r.PairKey, r.Error)
			continue
		}
		d := r.Result.Diag
		status := "complete"
		if d.Truncated {
			status = fmt.Sprintf("truncated by %s at %.0f%%", d.TruncatedBy, 100*d.Completeness)
		}
		top := r.Result.Saliency.TopK(1)
		fmt.Printf("#%d %s: score %.3f, top attribute %s, %d model calls (%s)\n",
			i, r.PairKey, r.Result.Saliency.Prediction, top[0], d.ModelCalls, status)
	}

	// 4. Server-side telemetry, scraped from GET /v1/metrics: the
	//    duplicate batch item shared one computation, and the shared
	//    cache deduplicated scoring across the whole batch.
	m, err := telemetry.Scrape(context.Background(), http.DefaultClient, base+"/v1/metrics")
	if err != nil {
		log.Fatal(err)
	}
	ab := telemetry.Labels{"backend": "AB"}
	fmt.Printf("\nserver metrics: %.0f computed, %.0f coalesced; cache: %.0f unique model calls, hit rate %.1f%%\n",
		m.Sum("certa_explanations_served_total", nil), m.Sum("certa_requests_coalesced_total", nil),
		m.Sum("certa_score_cache_misses_total", ab),
		100*m.Sum("certa_score_cache_hits_total", ab)/m.Sum("certa_score_cache_lookups_total", ab))

	// 5. Persistence: snapshot the warm cache; a restarted server would
	//    Restore it and answer the same requests without model calls
	//    (see cmd/certa-serve -cache-file).
	var snap bytes.Buffer
	n, err := svc.Snapshot(&snap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache snapshot: %d scores, %d bytes\n", n, snap.Len())
}

func intp(i int) *int { return &i }
