// Package nodrift defines an analyzer keeping environmental
// nondeterminism — wall clocks, the global math/rand generator,
// process environment — out of the deterministic scoring path.
//
// The repo's contract (PR 1, gated by the parallelism byte-identity
// tests) is that Explain/ExploreMany/ScoreBatch produce byte-identical
// Results for the same inputs: every random choice is derived from
// Options.Seed and every truncation decision from deterministic call
// accounting. Whole-program reachability needs cross-package facts, so
// this analyzer enforces the contract at package granularity: every
// package that computes results (anything reachable from
// core.Explain, lattice.ExploreMany or the ScoreBatch stack) is in the
// deny set, while the serving and tooling layers (internal/server,
// internal/debugserve, internal/eval, cmd/*) stay free to read clocks
// and the environment. The sanctioned in-path exceptions — the
// anytime-deadline clock reads in internal/core/anytime.go and
// wall-clock telemetry such as index build times, and the per-process
// maphash seeds that place keys on lock stripes — carry
// //lint:allow nodrift directives with their justification.
package nodrift

import (
	"go/ast"
	"go/types"

	"certa/internal/lint/analysis"
)

// Analyzer flags time.Now/Since/Until, os.Getenv-style environment
// reads, global math/rand functions and hash/maphash.MakeSeed inside the
// deterministic scoring packages.
var Analyzer = &analysis.Analyzer{
	Name: "nodrift",
	Doc: `forbids wall clocks, global math/rand and environment reads in the deterministic scoring path

Explanations must be byte-identical for the same inputs at any
parallelism. time.Now, the shared math/rand generator, os.Getenv and
maphash.MakeSeed smuggle run-to-run state into scoring. Use a seeded *rand.Rand
(Options.Seed), thread deadlines in from the serving layer, and read
configuration in cmd/*. Sanctioned uses (the anytime-deadline clock,
build-time telemetry) carry //lint:allow nodrift <reason>.`,
	Run: run,
}

// deterministicPackages is the deny set: every package whose code runs
// while a Result is being computed. internal/server, internal/
// debugserve and cmd/* are deliberately absent — they are the
// allowlisted serving layers the contract routes clocks through.
var deterministicPackages = map[string]bool{
	"certa":                       true,
	"certa/internal/baselines":    true,
	"certa/internal/blocking":     true,
	"certa/internal/core":         true,
	"certa/internal/dataset":      true,
	"certa/internal/embedding":    true,
	"certa/internal/explain":      true,
	"certa/internal/lattice":      true,
	"certa/internal/lime":         true,
	"certa/internal/linmodel":     true,
	"certa/internal/matchers":     true,
	"certa/internal/memo":         true,
	"certa/internal/metrics":      true,
	"certa/internal/neighborhood": true,
	"certa/internal/nn":           true,
	"certa/internal/record":       true,
	"certa/internal/scorecache":   true,
	"certa/internal/shap":         true,
	"certa/internal/strutil":      true,
	"certa/internal/vector":       true,
	"certa/internal/workpool":     true,
	// telemetry is instrumented *into* the scoring path, so it joins the
	// deny set: all of its span timing must flow through the one waived
	// clock read behind telemetry.Clock (clock.go), not ad-hoc time.Now
	// calls.
	"certa/internal/telemetry": true,
}

// denied maps package path -> package-level function names that leak
// environmental state. Methods (e.g. (*rand.Rand).Intn, which is
// seeded and fine) never match: only the package-level globals do.
var denied = map[string]map[string]string{
	"time": {
		"Now":   "reads the wall clock",
		"Since": "reads the wall clock",
		"Until": "reads the wall clock",
	},
	"hash/maphash": {
		"MakeSeed": "draws a per-process random seed",
	},
	"os": {
		"Getenv":    "reads the process environment",
		"LookupEnv": "reads the process environment",
		"Environ":   "reads the process environment",
	},
	"math/rand": {
		"Int": "", "Intn": "", "Int31": "", "Int31n": "", "Int63": "", "Int63n": "",
		"Uint32": "", "Uint64": "", "Float32": "", "Float64": "",
		"ExpFloat64": "", "NormFloat64": "", "Perm": "", "Shuffle": "", "Seed": "", "Read": "",
	},
	"math/rand/v2": {
		"Int": "", "IntN": "", "Int32": "", "Int32N": "", "Int64": "", "Int64N": "",
		"Uint": "", "UintN": "", "Uint32": "", "Uint32N": "", "Uint64": "", "Uint64N": "",
		"Float32": "", "Float64": "", "ExpFloat64": "", "NormFloat64": "", "Perm": "", "Shuffle": "", "N": "",
	},
}

func run(pass *analysis.Pass) (any, error) {
	if !deterministicPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
				return true
			}
			names, ok := denied[fn.Pkg().Path()]
			if !ok {
				return true
			}
			why, ok := names[fn.Name()]
			if !ok {
				return true
			}
			if why == "" {
				why = "draws from the shared, unseeded generator"
			}
			pass.Reportf(call.Pos(),
				"%s.%s %s inside the deterministic scoring path; derive it from Options.Seed or thread it in from the serving layer (or //lint:allow nodrift <reason>)",
				fn.Pkg().Name(), fn.Name(), why)
			return true
		})
	}
	return nil, nil
}
