#!/bin/sh
# CI gate: vet, certa-lint, build, full test suite, race passes, a
# one-iteration benchmark smoke pass, the serve and ring smokes, and the
# nested benchmark module's vet and tests.
#
# Every test invocation carries a per-package -timeout so a cancellation
# deadlock in the context paths fails CI instead of hanging it.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

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

echo "== race (context + shared scoring pipeline + retrieval layer + scoring engine + HTTP serving + lattice + telemetry + cluster routing) =="
go test -race -timeout 600s ./internal/scorecache/ ./internal/workpool/ ./internal/core/ ./internal/neighborhood/ ./internal/nn/ ./internal/embedding/ ./internal/server/ ./internal/lattice/ ./internal/telemetry/ ./internal/cluster/

# The lattice-pruning paths specifically, under the race detector at
# Parallelism 8 (TestLatticePruneDeterministic and friends run inside the
# package sweeps above too; this names them so a -run filter regression
# can't silently drop them).
echo "== race (pruned-mode determinism) =="
go test -race -timeout 300s -run 'Prune' ./internal/lattice/ ./internal/core/ ./internal/server/

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
