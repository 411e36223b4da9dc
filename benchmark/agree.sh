#!/usr/bin/env bash
# Checks that the benchmark agrees with itself: it runs every workload
# end to end as two sets of N runs (seeds 1..N in each set, one process
# per run), then prints for every metric each set's median, quartiles
# and range, and whether set B's medians fall within set A's bounds
# from BENCHMARK.json. Exits 1 if any metric disagrees.
#
#   bash benchmark/agree.sh [N] [more benchmark flags, e.g. --seconds 15]
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
n=${1:-5}
shift $(($# > 0 ? 1 : 0))

out=$root/.bench_build/agree
mkdir -p "$out"
rm -f "$out/A.jsonl" "$out/B.jsonl"
bash "$here/run.sh" -list >/dev/null # builds once, up front
bin=$root/.bench_build/certabench
for set in A B; do
	for ((seed = 1; seed <= n; seed++)); do
		for w in $("$bin" -list); do
			echo "agree: set $set seed $seed $w" >&2
			"$bin" --workload "$w" --seed "$seed" --trace 0 --out "$out/$set.jsonl" "$@" >/dev/null
		done
	done
done
"$bin" agree -spec "$root/BENCHMARK.json" "$out/A.jsonl" "$out/B.jsonl"
