#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument on:
#
#   bash benchmark/run.sh --workload serve-zipf --seed 3 --seconds 15 --trace 0
#
# The build and the Go caches stay inside the checkout, under
# .bench_build/, and nothing is fetched: the benchmark needs only the
# standard library and the certa module beside it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f $root/go.mod || ! -f $root/certa.go ]]; then
	echo "benchmark: no certa sources in $root; run it from a full checkout" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build"
(
	cd "$here"
	export HOME=$build/home XDG_CONFIG_HOME=$build/config \
		GOCACHE=$build/gocache GOPATH=$build/gopath \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -o "$build/certabench" .
)
exec "$build/certabench" "$@"
