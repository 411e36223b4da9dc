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

# profile captures a CPU profile of untraced explanations over the AB
# blocked-cluster fixture (certa.pprof, plus the certa.test binary it
# symbolizes against; inspect with `go tool pprof certa.pprof`).
profile:
	$(GO) test -run '^$$' -bench BenchmarkExplainPlain -benchtime 32x -cpuprofile certa.pprof .
	@echo "CPU profile written to certa.pprof"

# ci runs the full gate: every stage of scripts/ci.sh, races and smokes included.
ci:
	sh scripts/ci.sh

clean:
	rm -f certa.pprof certa.test
	rm -rf bin
