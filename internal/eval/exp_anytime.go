package eval

import (
	"fmt"

	"certa/internal/core"
	"certa/internal/explain"
	"certa/internal/metrics"
	"certa/internal/record"
)

// anytimeBudgetFractions are the CallBudget sweep points, as fractions
// of the unlimited run's mean per-explanation unique model calls.
var anytimeBudgetFractions = []float64{0.05, 0.15, 0.35, 0.7, 1.2}

// anytime is an experiment beyond the paper, extending the latency
// profile: explanation quality as a function of the per-explanation
// call budget (Options.CallBudget). LEMON (Barlaug, 2021) observes that
// explanation quality degrades gracefully under a sampling budget; this
// table shows the same anytime behavior for CERTA — truncated fraction
// and completeness fall as the budget tightens, while the counterfactuals
// that are produced remain valid and the saliency ranking converges to
// the unlimited run's as the budget grows.
func anytime(h *Harness) ([]*Table, error) {
	t := &Table{
		ID:    "anytime",
		Title: "Anytime explanations: quality vs per-explanation call budget (beyond-paper serving profile)",
		Header: []string{"Model", "CallBudget", "Truncated", "Completeness",
			"Saliency@2 vs full", "CF validity", "Calls/expl"},
	}
	code := "AB"
	if len(h.cfg.Datasets) > 0 {
		code = h.cfg.Datasets[0]
	}
	for _, kind := range h.cfg.Models {
		c, err := h.cell(code, kind)
		if err != nil {
			return nil, err
		}
		pairs := make([]record.Pair, len(c.pairs))
		labeled := make([]record.LabeledPair, len(c.pairs))
		for i, p := range c.pairs {
			pairs[i] = p.Pair
			labeled[i] = p
		}

		// The unlimited run is the quality reference. It flows through
		// the cell's shared scoring service like every other experiment,
		// so repeated sweeps re-pay almost nothing.
		full, err := c.certaResults(h)
		if err != nil {
			return nil, err
		}
		var meanCalls float64
		for _, r := range full {
			meanCalls += float64(r.Diag.ModelCalls)
		}
		meanCalls /= float64(len(full))

		budgets := make([]int, 0, len(anytimeBudgetFractions)+1)
		for _, f := range anytimeBudgetFractions {
			b := int(f * meanCalls)
			if b < 1 {
				b = 1
			}
			budgets = append(budgets, b)
		}
		budgets = append(budgets, 0) // unlimited

		for _, budget := range budgets {
			// The budget-0 row IS the unlimited reference already in
			// hand; only real budgets pay for a sweep run.
			results := full
			if budget != 0 {
				e := core.New(c.bench.Left, c.bench.Right, core.Options{
					Triangles:   h.cfg.Triangles,
					Seed:        h.cfg.Seed,
					Parallelism: h.cfg.Parallelism,
					Shared:      c.scoring,
					CallBudget:  budget,
					Retrieval:   c.retrieval,
				})
				var err error
				results, err = e.ExplainBatch(c.model, pairs)
				if err != nil {
					return nil, fmt.Errorf("eval: anytime %s/%s budget %d: %w", code, kind, budget, err)
				}
			}

			s := SummarizeAnytime(results, full)
			validity := "-"
			if s.CFValidity >= 0 {
				validity = fmt.Sprintf("%.2f", s.CFValidity)
			}
			label := fmt.Sprintf("%d", budget)
			if budget == 0 {
				label = "unlimited"
			}
			t.Rows = append(t.Rows, []string{
				string(kind), label,
				fmt.Sprintf("%.2f", s.TruncatedFraction),
				fmt.Sprintf("%.2f", s.MeanCompleteness),
				fmt.Sprintf("%.2f", s.Top2Agreement),
				validity,
				fmt.Sprintf("%.1f", s.MeanModelCalls),
			})
		}
	}
	t.Notes = fmt.Sprintf("dataset %s, %d pairs per cell; budgets swept as fractions of the unlimited run's mean calls; Saliency@2 is top-2 attribute agreement (Jaccard) with the unlimited run; CF validity is the flip rate of emitted counterfactuals (1 under the monotone-classifier assumption; tight budgets lean harder on inferred flips, so non-monotone matchers can dip below it)", code, h.cfg.ExplainPairs)
	return []*Table{t}, nil
}

// AnytimeSummary aggregates one budget run of the anytime experiments —
// shared by the eval table above and the pruned-mode quality gate
// (TestPrunedModeKeepsTopAttribution in the certa package), so both
// measure exactly the same quantities.
type AnytimeSummary struct {
	// TruncatedFraction is the share of explanations the budget cut.
	TruncatedFraction float64
	// MeanCompleteness averages Diagnostics.Completeness.
	MeanCompleteness float64
	// Top2Agreement is the mean top-2 saliency agreement (Jaccard) with
	// the reference run.
	Top2Agreement float64
	// CFValidity is the flip rate of emitted counterfactuals, -1 when
	// none were emitted.
	CFValidity float64
	// MeanModelCalls averages the per-explanation unique model calls.
	MeanModelCalls float64
}

// SummarizeAnytime folds one budget run against its unlimited reference
// (index-aligned, same pairs). results must be non-empty.
func SummarizeAnytime(results, reference []*core.Result) AnytimeSummary {
	var s AnytimeSummary
	var cfs []explain.Counterfactual
	for i, r := range results {
		if r.Diag.Truncated {
			s.TruncatedFraction++
		}
		s.MeanCompleteness += r.Diag.Completeness
		s.Top2Agreement += metrics.TopKAgreement(r.Saliency, reference[i].Saliency, 2)
		s.MeanModelCalls += float64(r.Diag.ModelCalls)
		cfs = append(cfs, r.Counterfactuals...)
	}
	n := float64(len(results))
	s.TruncatedFraction /= n
	s.MeanCompleteness /= n
	s.Top2Agreement /= n
	s.MeanModelCalls /= n
	s.CFValidity = -1
	if len(cfs) > 0 {
		s.CFValidity = metrics.Validity(cfs)
	}
	return s
}
