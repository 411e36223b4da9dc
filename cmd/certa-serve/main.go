// Command certa-serve is the explanation-serving daemon: it trains (or
// loads) one of the paper's ER systems on a synthetic benchmark and
// serves CERTA explanations over the JSON HTTP API:
//
//	certa-serve -dataset AB -model DeepMatcher -addr 127.0.0.1:8080
//	curl -s -X POST localhost:8080/v1/explain -d '{"pair_index":0}'
//
// Serving layers (see internal/server): admission control bounds
// concurrent explanations (-max-inflight) and the wait queue
// (-max-queue), rejecting the rest with 429 + Retry-After; identical
// in-flight requests coalesce into one computation; client disconnects
// cancel the underlying explanation; per-request deadline_ms /
// call_budget / top_k knobs map onto the anytime engine options.
//
// With -cache-file the shared score cache is restored at startup and
// snapshotted on graceful shutdown (SIGINT/SIGTERM drains in-flight
// requests first), so restarts answer repeat workloads warm. A
// corrupted or truncated cache file is rejected and the server starts
// cold — it never panics and never loads half a snapshot.
//
// As a ring member behind certa-router (see internal/cluster), -name
// sets the worker identity logged on every request line, and
// -warm-from pulls a running donor's GET /v1/snapshot at startup —
// optionally filtered by -warm-ring/-warm-vnodes so a joining worker
// installs exactly the shard the ring assigns it. Warm-join failures of
// any kind degrade to a cold start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
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
		ds          = flag.String("dataset", "AB", "benchmark code (AB, AG, BA, DA, DS, FZ, IA, WA, DDA, DDS, DIA, DWA)")
		model       = flag.String("model", "DeepMatcher", "ER system: DeepER, DeepMatcher, Ditto, SVM")
		records     = flag.Int("records", 300, "max records per source")
		matches     = flag.Int("matches", 150, "max matching pairs")
		seed        = flag.Int64("seed", 7, "random seed")
		triangles   = flag.Int("triangles", 100, "CERTA triangle budget τ")
		parallelism = flag.Int("parallelism", 4, "worker goroutines per explanation's scoring pipeline")
		maxInflight = flag.Int("max-inflight", 4, "admission: max concurrently computing explanations")
		maxQueue    = flag.Int("max-queue", 64, "admission: max queued explanations before 429")
		cacheFile   = flag.String("cache-file", "", "restore the score cache from this snapshot at startup and write it back on graceful shutdown")
		cacheCap    = flag.Int("cache-capacity", 0, "bound on cached scores (0 = unbounded; sharded LRU past it)")
		resultMemo  = flag.Int("result-memo", 0, "bound on memoized response bodies per backend (0 = disabled); repeats of deterministic requests replay their exact bytes without recomputing")
		name        = flag.String("name", "", "worker name logged as worker=<name> on every request log line (ring members: must match the router's -workers entry)")
		warmFrom    = flag.String("warm-from", "", "pull a running worker's /v1/snapshot from this base URL at startup (warm join; any failure just means a cold start)")
		warmRing    = flag.String("warm-ring", "", "ring membership (router -workers syntax) to filter the warm join by: only keys the ring assigns to -name are installed")
		warmVnodes  = flag.Int("warm-vnodes", 0, "virtual nodes per member for -warm-ring placement (0 = default; must match the router's -vnodes)")
		loadModel   = flag.String("load-model", "", "load a previously saved model instead of training")
		augBudget   = flag.Int("augment-budget", 0, "default token-drop variants per missing augmented support (0 = engine default 200; requests may override via augment_budget)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown allowance for in-flight requests")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof and /v1/metrics on this auxiliary address (empty = disabled)")
		logLevel    = flag.String("log-level", "info", "request log level: debug, info, warn, error")
	)
	flag.Parse()

	if *pprofAddr != "" {
		bound, err := debugserve.Start(*pprofAddr, telemetry.Default.Handler())
		if err != nil {
			fmt.Fprintf(os.Stderr, "certa-serve: %v\n", err)
			os.Exit(1)
		}
		log.Printf("pprof endpoints on http://%s/debug/pprof/ (metrics at /v1/metrics)", bound)
	}

	if err := run(*addr, *addrFile, *ds, *model, *records, *matches, *seed, *triangles,
		*parallelism, *maxInflight, *maxQueue, *cacheFile, *cacheCap, *resultMemo, *loadModel, *augBudget, *drain, *logLevel,
		*name, *warmFrom, *warmRing, *warmVnodes); err != nil {
		fmt.Fprintf(os.Stderr, "certa-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, addrFile, ds, model string, records, matches int, seed int64, triangles,
	parallelism, maxInflight, maxQueue int, cacheFile string, cacheCap, resultMemo int, loadModel string, augBudget int,
	drain time.Duration, logLevel string, name, warmFrom, warmRing string, warmVnodes int) error {
	log.SetPrefix("certa-serve: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	// The structured request log goes to stderr beside the startup log;
	// one summary line per request with the per-stage time breakdown.
	var level slog.Level
	if err := level.UnmarshalText([]byte(logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	bench, err := certa.GenerateBenchmark(ds, certa.BenchmarkOptions{
		Seed: seed, MaxRecords: records, MaxMatches: matches,
	})
	if err != nil {
		return err
	}
	var m *certa.Matcher
	if loadModel != "" {
		data, err := os.ReadFile(loadModel)
		if err != nil {
			return err
		}
		m = new(certa.Matcher)
		if err := m.UnmarshalBinary(data); err != nil {
			return err
		}
		log.Printf("loaded %s from %s: F1 = %.3f on the test split", m.Name(), loadModel, certa.F1(m, bench.Test))
	} else {
		m, err = certa.TrainMatcher(certa.MatcherKind(model), bench, certa.MatcherConfig{Seed: seed})
		if err != nil {
			return err
		}
		log.Printf("trained %s on %s: F1 = %.3f on the test split", m.Name(), ds, certa.F1(m, bench.Test))
	}

	// The backend's long-lived shared scoring service, warmed from the
	// cache file when one is given and readable.
	svc := certa.NewScoringService(m, certa.ScoringServiceOptions{
		Parallelism: parallelism, Capacity: cacheCap,
	})
	restored := 0
	if cacheFile != "" {
		if f, err := os.Open(cacheFile); err == nil {
			n, rerr := svc.Restore(f)
			f.Close()
			if rerr != nil {
				log.Printf("cache file %s rejected (%v); starting cold", cacheFile, rerr)
			} else {
				restored = n
				log.Printf("restored %d cached scores from %s", n, cacheFile)
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("opening cache file: %w", err)
		}
	}

	// Warm join: pull a running donor's snapshot over HTTP, optionally
	// keeping only the shard a ring assigns this worker. Any failure —
	// unreachable donor, corrupted stream — just means a cold start; the
	// snapshot's CRC framing guarantees nothing partial is installed.
	if warmFrom != "" {
		var keep func(key string) bool
		if warmRing != "" {
			if name == "" {
				return fmt.Errorf("-warm-ring needs -name to know which shard is ours")
			}
			members, err := cluster.ParseMembers(warmRing)
			if err != nil {
				return fmt.Errorf("-warm-ring: %w", err)
			}
			ring, err := cluster.NewRing(members, warmVnodes)
			if err != nil {
				return err
			}
			keep = cluster.KeepOwned(ring, name)
		}
		n, err := cluster.FetchSnapshot(context.Background(), nil, warmFrom, ds, svc, keep)
		if err != nil {
			log.Printf("warm join from %s failed (%v); starting cold", warmFrom, err)
		} else {
			restored += n
			if keep != nil {
				log.Printf("warm join: restored %d cached scores (our shard) from %s", n, warmFrom)
			} else {
				log.Printf("warm join: restored %d cached scores from %s", n, warmFrom)
			}
		}
	}

	pairs := make([]certa.Pair, len(bench.Test))
	for i, lp := range bench.Test {
		pairs[i] = lp.Pair
	}
	// The backend's candidate retrieval index, built once at startup:
	// requests stream support candidates from its postings instead of
	// re-tokenizing the sources per explanation.
	idx := certa.NewCandidateIndex(bench.Left, bench.Right)
	if st, ok := idx.Stats(); ok {
		log.Printf("candidate index built: %d records, %d distinct tokens in %.1fms",
			st.Records, st.DistinctTokens, st.BuildMS)
	}
	srv, err := certa.NewServer([]certa.ServerBackend{{
		Name:  ds,
		Left:  bench.Left,
		Right: bench.Right,
		Model: m,
		Options: certa.Options{
			Triangles: triangles, Seed: seed, Parallelism: parallelism,
			AugmentBudget: augBudget, Retrieval: idx,
		},
		Pairs:           pairs,
		Service:         svc,
		RestoredEntries: restored,
	}}, certa.ServerOptions{
		Name:        name,
		MaxInFlight: maxInflight, MaxQueue: maxQueue,
		ResultMemo: resultMemo,
		Logger:     logger,
		// The process-wide registry, so the server's series share the
		// -pprof-addr scrape surface with any other instrumentation; the
		// public mux serves the same registry at GET /v1/metrics.
		Metrics: telemetry.Default,
	})
	if err != nil {
		return err
	}

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
	log.Printf("serving %s/%s explanations on http://%s (test pairs addressable as pair_index 0..%d)",
		ds, m.Name(), bound, len(pairs)-1)

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: drain in-flight requests, then persist the
	// cache so the next start serves warm.
	log.Printf("shutting down: draining in-flight requests (up to %s)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	srv.Close()
	if cacheFile != "" {
		if err := writeSnapshot(svc, cacheFile); err != nil {
			return fmt.Errorf("writing cache snapshot: %w", err)
		}
		log.Printf("cache snapshot (%d entries) written to %s", svc.Len(), cacheFile)
	}
	return nil
}

// writeSnapshot persists the cache atomically and durably: write aside,
// sync the file, rename it over path, then sync the directory. A crash
// at any point leaves either the previous snapshot or the complete new
// one under path; without the file sync, a crash after the rename could
// leave a truncated file there, which Restore rejects, costing a cold
// start.
func writeSnapshot(svc *certa.ScoringService, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = svc.Snapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}
