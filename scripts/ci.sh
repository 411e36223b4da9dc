#!/bin/sh
# CI gate: gofmt, vet (host and arm64), certa-lint, build, full test
# suite, race passes, short fuzzing bursts, a one-iteration benchmark
# smoke pass, the serve and ring smokes, and the nested benchmark
# module's vet and tests.
#
# Every test invocation carries a per-package -timeout so a cancellation
# deadlock in the context paths fails CI instead of hanging it.
set -eu

cd "$(dirname "$0")/.."

# gofmt -l lists every file whose formatting differs from gofmt's; any
# listed file fails the gate. .bench_build/ holds benchmark/run.sh's Go
# caches, not sources.
echo "== gofmt =="
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt would reformat:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

# The !amd64 files (internal/nn's dense_noasm.go, internal/cpufeat's
# cpufeat_noasm.go) build only off amd64; vetting for arm64 compiles
# and checks them.
echo "== go vet (GOARCH=arm64) =="
GOARCH=arm64 go vet ./...

# certa-lint runs the repo's own analyzers (maporder, nodrift,
# diagpure, ctxthread, wiretag — see internal/lint/CATALOG.md) through
# go vet's -vettool protocol, before the test stage so contract
# violations fail fast.
echo "== certa-lint (custom analyzers via go vet -vettool) =="
go build -o bin/certa-lint ./cmd/certa-lint
go vet -vettool="$(pwd)/bin/certa-lint" ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test -timeout 300s ./...

echo "== race (context + shared scoring pipeline + retrieval layer + scoring engine + matcher memos + records + HTTP serving + lattice + telemetry + cluster routing) =="
go test -race -timeout 600s ./internal/scorecache/ ./internal/workpool/ ./internal/core/ ./internal/neighborhood/ ./internal/nn/ ./internal/embedding/ ./internal/memo/ ./internal/matchers/ ./internal/record/ ./internal/server/ ./internal/lattice/ ./internal/telemetry/ ./internal/cluster/

# Variant ids are derived under a per-record lock that several
# support scans reach at once; released views' key sets, with the batch
# scratch that now lives in them, pass between goroutines through a
# pool; and a view scores one batch at a time, holding its lock while a
# concurrent caller waits. Ten passes under the race detector run all
# five.
echo "== race (variant ids, pooled view key sets with their batch scratch, one batch per view at a time, 10 passes) =="
go test -race -count=10 -timeout 300s -run '^(TestConcurrentSupportKeyers|TestReleasedViewStartsEmpty|TestConcurrentKeyedBatchesMatchPrivate|TestViewScoresOneBatchAtATime|TestConcurrentUse)$' ./internal/scorecache/

# The lattice-pruning paths specifically, under the race detector at
# Parallelism 8 (TestLatticePruneDeterministic and friends run inside the
# package sweeps above too; this names them so a -run filter regression
# can't silently drop them).
echo "== race (pruned-mode determinism) =="
go test -race -timeout 300s -run 'Prune' ./internal/lattice/ ./internal/core/ ./internal/server/

# Each must report the lowest-index job error even when a higher index
# fails first. A race there loses it in about 2% of single passes, so
# one pass of the suite rarely shows it; 500 do.
echo "== workpool lowest-index error (500 passes) =="
go test -count=500 -timeout 120s -run '^TestEach' ./internal/workpool/

# Short native-fuzzing bursts past each target's seed corpus (which
# plain go test already runs): snapshot decode, store-key parse and
# render, a store stripe against a map, request decoding, ring
# placement, the bit-vector edit distance against the rune DP and
# DeepMatcher's batch pass against per-pair scoring and against blocks
# computed with no memo, which exercises the decode of memoized blocks
# from their counts (its seeds reach the constant-ratio cases, values
# cut at 64 bytes inside a rune and blocks too wide to memoize), and
# the server's response renderer against json.Marshal.
# -fuzzminimizetime 100x caps how long
# the fuzzer spends shrinking each new input: at the default 60 s,
# minimizing stalled FuzzRestore's bursts at 0 execs/s for seconds at a
# time. A failing input is still reported and saved.
echo "== fuzz bursts (FuzzRestore, FuzzStoreKey, FuzzStoreTable, FuzzExplainRequest, FuzzRing, FuzzLevenshteinDistance, FuzzScoreBatch, FuzzRenderResponse; 10 s each) =="
fuzz() {
	go test -timeout 120s -run '^$' -fuzz "^$1\$" -fuzztime 10s -fuzzminimizetime 100x "$2"
}
fuzz FuzzRestore ./internal/scorecache/
fuzz FuzzStoreKey ./internal/scorecache/
fuzz FuzzStoreTable ./internal/scorecache/
fuzz FuzzExplainRequest ./internal/server/
fuzz FuzzRing ./internal/cluster/
fuzz FuzzLevenshteinDistance ./internal/strutil/
fuzz FuzzScoreBatch ./internal/matchers/
fuzz FuzzRenderResponse ./internal/server/

echo "== bench smoke =="
go test -timeout 600s -bench=. -benchtime=1x -run='^$' .

# servesmoke builds certa-serve itself, boots it on an ephemeral port,
# issues a cold + warm request, restarts it from its cache snapshot and
# asserts the warm hit rate.
echo "== certa-serve smoke (ephemeral port, warm+cold request, snapshot restart) =="
go run ./scripts/servesmoke

# ringsmoke boots a 2-worker ring behind certa-router, SIGKILLs one
# worker mid-load and asserts failover keeps every response succeeding
# byte-identically while the stats surface reports the degraded ring.
echo "== certa-router smoke (2-worker ring, mid-load worker kill, failover) =="
go run ./scripts/ringsmoke

# benchmark/ is its own Go module (replace certa => ../), so the root
# ./... patterns above never compile it. Vetting and testing it here
# makes a change to the APIs or /v1/metrics series it drives fail CI.
echo "== benchmark module (vet + unit tests + quick smoke of every workload) =="
go -C benchmark vet ./...
go -C benchmark test -timeout 300s ./...
