// Command certa-router fronts a ring of certa-serve workers with a
// consistent-hash sharded routing layer (see internal/cluster):
//
//	certa-serve  -dataset AB -addr 127.0.0.1:8081 -name w0 &
//	certa-serve  -dataset AB -addr 127.0.0.1:8082 -name w1 &
//	certa-router -dataset AB -addr 127.0.0.1:8080 \
//	    -workers 'w0=http://127.0.0.1:8081,w1=http://127.0.0.1:8082'
//	curl -s -X POST localhost:8080/v1/explain -d '{"pair_index":0}'
//
// Each explanation request is resolved to its canonical pair content
// and forwarded to the worker the ring assigns that content to, so
// repeat and related traffic for a pair always lands on the same warm
// cache. Batches are partitioned by shard and fanned out concurrently.
// A dead worker's shard fails over to the next replica on the ring;
// responses otherwise pass through byte-for-byte, so a client cannot
// tell the router from a single certa-serve process.
//
// The router rebuilds the benchmark tables itself (same -dataset,
// -records, -matches, -seed as the workers — generation is
// deterministic) because placement needs the pair content, not just
// the request bytes. GET /v1/metrics federates the ring: the router's
// own series plus every reachable worker's /v1/metrics, each worker
// sample labeled worker="<name>", so scrape the router or the workers,
// not both. -pprof-addr serves only the router process's own series.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"certa"
	"certa/internal/cluster"
	"certa/internal/debugserve"
	"certa/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (use port 0 for an ephemeral port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		workers     = flag.String("workers", "", "comma-separated ring members, each name=url or a bare url (named w0, w1, ... by position); names determine placement and must match the workers' -name flags")
		vnodes      = flag.Int("vnodes", 0, "virtual nodes per member on the placement ring (0 = default; must match any ring-filtered warm join)")
		ds          = flag.String("dataset", "AB", "comma-separated benchmark codes the ring serves (must match the workers' -dataset)")
		records     = flag.Int("records", 300, "max records per source (must match the workers)")
		matches     = flag.Int("matches", 150, "max matching pairs (must match the workers)")
		seed        = flag.Int64("seed", 7, "random seed (must match the workers)")
		healthEvery = flag.Duration("health-every", 5*time.Second, "active worker health-probe interval (0 = passive only)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown allowance for in-flight requests")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof and /v1/metrics on this auxiliary address (empty = disabled)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	if *pprofAddr != "" {
		bound, err := debugserve.Start(*pprofAddr, telemetry.Default.Handler())
		if err != nil {
			fmt.Fprintf(os.Stderr, "certa-router: %v\n", err)
			os.Exit(1)
		}
		log.Printf("pprof endpoints on http://%s/debug/pprof/ (metrics at /v1/metrics)", bound)
	}

	if err := run(*addr, *addrFile, *workers, *vnodes, *ds, *records, *matches, *seed,
		*healthEvery, *drain, *logLevel); err != nil {
		fmt.Fprintf(os.Stderr, "certa-router: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, addrFile, workers string, vnodes int, ds string, records, matches int, seed int64,
	healthEvery, drain time.Duration, logLevel string) error {
	log.SetPrefix("certa-router: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	var level slog.Level
	if err := level.UnmarshalText([]byte(logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	members, err := cluster.ParseMembers(workers)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}

	// Rebuild each benchmark's tables: generation is deterministic in
	// (code, records, matches, seed), so the router resolves a request
	// to exactly the pair content the workers will score.
	var keyspaces []cluster.Keyspace
	for _, code := range strings.Split(ds, ",") {
		code = strings.TrimSpace(code)
		if code == "" {
			continue
		}
		bench, err := certa.GenerateBenchmark(code, certa.BenchmarkOptions{
			Seed: seed, MaxRecords: records, MaxMatches: matches,
		})
		if err != nil {
			return err
		}
		pairs := make([]certa.Pair, len(bench.Test))
		for i, lp := range bench.Test {
			pairs[i] = lp.Pair
		}
		keyspaces = append(keyspaces, cluster.Keyspace{
			Name: code, Left: bench.Left, Right: bench.Right, Pairs: pairs,
		})
	}

	rt, err := cluster.NewRouter(members, cluster.Options{
		VirtualNodes: vnodes,
		Keyspaces:    keyspaces,
		HealthEvery:  healthEvery,
		Logger:       logger,
		Metrics:      telemetry.Default,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	// One synchronous probe before accepting traffic, so the first
	// requests already know which members are reachable.
	rt.ProbeOnce(context.Background())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing addr file: %w", err)
		}
	}
	log.Printf("routing %s across %d workers on http://%s (%d virtual nodes/member)",
		ds, len(members), bound, rt.Ring().VirtualNodes())

	httpSrv := &http.Server{Handler: rt}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining in-flight requests (up to %s)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	return nil
}
