// Command certa-explain trains one of the paper's ER systems on a
// synthetic benchmark and prints the CERTA explanation (saliency +
// counterfactuals) of one test-pair prediction:
//
//	certa-explain -dataset AB -model Ditto -pair 0
//	certa-explain -dataset WA -model DeepER -wrong   # first misclassified pair
//	certa-explain -dataset AB -pair 0 -json          # machine-readable output
//
// With -json the explanation is emitted as the same ExplainResponse
// document the certa-serve HTTP API returns (one schema for CLI and
// server; progress lines go to stderr), and any failure — including a
// failed write to stdout — exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"certa"
)

func main() {
	var (
		ds         = flag.String("dataset", "AB", "benchmark code (AB, AG, BA, DA, DS, FZ, IA, WA, DDA, DDS, DIA, DWA)")
		model      = flag.String("model", "Ditto", "ER system: DeepER, DeepMatcher, Ditto, SVM")
		pairIdx    = flag.Int("pair", 0, "index into the benchmark's test split")
		wrong      = flag.Bool("wrong", false, "explain the first misclassified test pair instead")
		triangles  = flag.Int("triangles", 100, "CERTA triangle budget τ")
		parallel   = flag.Int("parallelism", 1, "worker goroutines for batched scoring")
		seed       = flag.Int64("seed", 7, "random seed")
		records    = flag.Int("records", 300, "max records per source")
		matches    = flag.Int("matches", 150, "max matching pairs")
		tokens     = flag.Bool("tokens", false, "also print token-level saliency (the paper's future-work extension)")
		saveModel  = flag.String("save-model", "", "write the trained model to this file")
		loadModel  = flag.String("load-model", "", "load a previously saved model instead of training")
		callBudget = flag.Int("call-budget", 0, "anytime cap on unique model calls (0 = unlimited); a tripped budget returns the best-so-far explanation")
		deadline   = flag.Duration("deadline", 0, "anytime soft wall-clock allowance for the explanation (0 = none)")
		augBudget  = flag.Int("augment-budget", 0, "token-drop variants the augmented-support search may try per missing support (0 = default 200)")
		prune      = flag.Float64("lattice-prune", 0, "lattice pruning threshold: stop exploring a lattice once a completed level's flip fraction reaches this (0 = exact exploration)")
		pruneMin   = flag.Int("lattice-prune-min-levels", 0, "levels that must be fully explored before -lattice-prune may cut (0 = default 2; narrow schemas need 1: a 3-attribute lattice only has levels 1..2)")
		jsonOut    = flag.Bool("json", false, "emit the explanation as the server's ExplainResponse JSON document on stdout")
	)
	flag.Parse()

	if err := run(*ds, *model, *pairIdx, *wrong, *triangles, *parallel, *seed, *records, *matches, *tokens, *saveModel, *loadModel, *callBudget, *deadline, *augBudget, *prune, *pruneMin, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "certa-explain: %v\n", err)
		os.Exit(1)
	}
}

// checkedWriter remembers the first write error, so output written with
// unchecked fmt.Fprintf calls still fails the command: before the
// audit, a closed or full stdout printed a partial explanation and
// exited 0.
type checkedWriter struct {
	w   io.Writer
	err error
}

func (c *checkedWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return len(p), nil // swallow the rest; the first error is what matters
	}
	n, err := c.w.Write(p)
	if err != nil {
		c.err = err
		return len(p), nil
	}
	return n, nil
}

func run(ds, model string, pairIdx int, wrong bool, triangles, parallel int, seed int64, records, matches int, tokens bool, saveModel, loadModel string, callBudget int, deadline time.Duration, augBudget int, prune float64, pruneMin int, jsonOut bool) error {
	// Human-readable progress goes to stdout normally, to stderr in
	// -json mode (stdout then carries exactly one JSON document).
	cw := &checkedWriter{w: os.Stdout}
	var out io.Writer = cw
	if jsonOut {
		if tokens {
			// The wire document has no token-saliency section; silently
			// dropping -tokens would hand scripts incomplete output.
			return fmt.Errorf("-tokens has no JSON representation; use it without -json")
		}
		out = os.Stderr
	}

	bench, err := certa.GenerateBenchmark(ds, certa.BenchmarkOptions{
		Seed: seed, MaxRecords: records, MaxMatches: matches,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "benchmark %s: %d + %d records, %d matches, %d test pairs\n",
		ds, bench.Left.Len(), bench.Right.Len(), len(bench.Matches), len(bench.Test))

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
		fmt.Fprintf(out, "loaded %s from %s: F1 = %.3f on the test split\n\n", m.Name(), loadModel, certa.F1(m, bench.Test))
	} else {
		m, err = certa.TrainMatcher(certa.MatcherKind(model), bench, certa.MatcherConfig{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trained %s: F1 = %.3f on the test split\n\n", model, certa.F1(m, bench.Test))
	}
	if saveModel != "" {
		data, err := m.MarshalBinary()
		if err != nil {
			return err
		}
		if err := os.WriteFile(saveModel, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "model saved to %s (%d bytes)\n\n", saveModel, len(data))
	}

	var target certa.LabeledPair
	switch {
	case wrong:
		found := false
		for _, p := range bench.Test {
			if (m.Score(p.Pair) > 0.5) != p.Match {
				target = p
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("no misclassified pair in the test split; try another -seed")
		}
	case pairIdx >= 0 && pairIdx < len(bench.Test):
		target = bench.Test[pairIdx]
	default:
		return fmt.Errorf("pair index %d out of range [0,%d)", pairIdx, len(bench.Test))
	}

	score := m.Score(target.Pair)
	fmt.Fprintf(out, "pair <%s>: ground truth %v, %s score %.3f (%s)\n",
		target.Key(), label(target.Match), m.Name(), score, label(score > 0.5))
	fmt.Fprintf(out, "  left : %s\n  right: %s\n\n", target.Left, target.Right)

	explainer := certa.New(bench.Left, bench.Right, certa.Options{
		Triangles: triangles, Seed: seed, Parallelism: parallel,
		CallBudget: callBudget, Deadline: deadline, AugmentBudget: augBudget,
		LatticePrune: certa.PrunePolicy{Threshold: prune, MinLevels: pruneMin},
	})
	res, err := explainer.Explain(m, target.Pair)
	if err != nil {
		return err
	}

	if jsonOut {
		// The server's wire document, verbatim: one schema for the CLI
		// and the HTTP API, pinned by the golden-file round-trip test.
		doc := certa.ExplainResponse{
			Benchmark: ds,
			PairKey:   target.Pair.Key(),
			Result:    res,
		}
		enc := json.NewEncoder(cw)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
		if cw.err != nil {
			return fmt.Errorf("writing to stdout: %w", cw.err)
		}
		return nil
	}

	if res.Diag.Truncated {
		fmt.Fprintf(out, "anytime: %s limit tripped — best-so-far explanation, completeness %.0f%%, %d calls spent\n\n",
			res.Diag.TruncatedBy, 100*res.Diag.Completeness, res.Diag.BudgetSpent)
	}

	fmt.Fprintln(out, "saliency (probability of necessity):")
	for _, ref := range res.Saliency.Ranked() {
		fmt.Fprintf(out, "  %-18s %.3f\n", ref, res.Saliency.Scores[ref])
	}
	fmt.Fprintf(out, "\ncounterfactuals (A★ = %s, χ = %.2f): %d examples\n",
		res.BestSet.Key(), res.BestSufficiency, len(res.Counterfactuals))
	for i, cf := range res.Counterfactuals {
		if i >= 3 {
			fmt.Fprintf(out, "  ... and %d more\n", len(res.Counterfactuals)-3)
			break
		}
		fmt.Fprintf(out, "  #%d score %.3f, changed %v\n", i+1, cf.Score, cf.ChangedAttrNames())
		for _, ref := range cf.Changed {
			fmt.Fprintf(out, "      %s: %q -> %q\n", ref, cf.Original.Value(ref), cf.Pair.Value(ref))
		}
	}
	if tokens {
		ts, err := explainer.TokenSaliency(m, target.Pair, res, certa.TokenOptions{Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\ntoken-level saliency (top 10):")
		for i, t := range ts {
			if i >= 10 {
				break
			}
			fmt.Fprintf(out, "  %-18s #%d %-16q %.4f\n", t.Ref, t.Index, t.Token, t.Score)
		}
	}

	fmt.Fprintf(out, "\ndiagnostics: %d+%d triangles (%d augmented), %d lattice queries, %d unique lattice calls (%d saved)\n",
		res.Diag.LeftTriangles, res.Diag.RightTriangles,
		res.Diag.AugmentedLeft+res.Diag.AugmentedRight,
		res.Diag.LatticeQueries, res.Diag.LatticePredictions, res.Diag.SavedPredictions)
	fmt.Fprintf(out, "batched scoring: %d lookups in %d batches, %d unique model calls, cache hit rate %.1f%%\n",
		res.Diag.CacheLookups, res.Diag.BatchCalls, res.Diag.ModelCalls,
		100*res.Diag.CacheHitRate())
	if res.Diag.PrunedQueries > 0 {
		fmt.Fprintf(out, "lattice pruning: %d questions skipped across %d unexplored levels\n",
			res.Diag.PrunedQueries, res.Diag.PruneLevels)
	}
	if cw.err != nil {
		return fmt.Errorf("writing to stdout: %w", cw.err)
	}
	return nil
}

func label(match bool) string {
	if match {
		return "Match"
	}
	return "Non-Match"
}
