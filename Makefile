GO ?= go

.PHONY: all vet lint build test bench servesmoke profile ci clean

all: build

vet:
	$(GO) vet ./...

# lint builds the certa-lint multichecker (five custom analyzers
# enforcing the determinism, diagnostics-purity, context-threading and
# wire-stability contracts; see internal/lint/CATALOG.md) and runs it
# over the whole module through go vet's -vettool protocol.
lint:
	$(GO) build -o bin/certa-lint ./cmd/certa-lint
	$(GO) vet -vettool=$(CURDIR)/bin/certa-lint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs a single iteration of every benchmark as a smoke pass.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# servesmoke boots cmd/certa-serve on an ephemeral port, exercises the
# HTTP API cold and warm, and restarts it from its cache snapshot.
servesmoke:
	$(GO) run ./scripts/servesmoke

# profile captures three CPU profiles of untraced explanations over the
# AB blocked-cluster fixture, plus the certa.test binary they symbolize
# against: certa.pprof re-explains pairs on a warm shared service
# (BenchmarkExplainPlain: store lookups, few model calls),
# certa-cold.pprof explains 8-pair batches, each on a fresh service at
# Parallelism 1 (BenchmarkExplainCold, the benchmark's batch-cold call
# shape: every model call and store insertion paid while the store
# grows across the batch), and certa-unseen.pprof explains the same
# batches with a freshly restored model whose matcher memos start empty
# (BenchmarkExplainNeverSeen: every value pair featurized from scratch).
# Inspect with `go tool pprof certa.test certa.pprof`.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkExplainPlain$$' -benchtime 32x -cpuprofile certa.pprof .
	$(GO) test -run '^$$' -bench '^BenchmarkExplainCold$$' -benchtime 32x -cpuprofile certa-cold.pprof .
	$(GO) test -run '^$$' -bench '^BenchmarkExplainNeverSeen$$' -benchtime 32x -cpuprofile certa-unseen.pprof .
	@echo "CPU profiles written to certa.pprof (warm), certa-cold.pprof (cold) and certa-unseen.pprof (never-seen)"

# ci runs the full gate: every stage of scripts/ci.sh, races and smokes included.
ci:
	sh scripts/ci.sh

clean:
	rm -f certa.pprof certa-cold.pprof certa-unseen.pprof certa.test
	rm -rf bin
