package eval

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// paperExpectations records, for every artifact, what the paper reports
// and which qualitative shape the reproduction should show. These are
// printed alongside the measured tables in the EXPERIMENTS.md report.
var paperExpectations = map[string]string{
	"table1": "Paper: 12 benchmarks; 3-8 attributes; e.g. AB 5743 matches / 1081-1092 records, DS 5547 / 2614-64263. " +
		"Ours: identical schemas and attribute counts; record/match counts capped by the generation scale " +
		"(use -full-scale to reproduce the paper's counts exactly).",
	"figure2": "Paper: the three systems disagree on three ground-truth matching Abt-Buy pairs; each system errs on one. " +
		"Ours: trained on synthetic AB, the models score the paper's original sample records; expect scores in (0,1) " +
		"with at least one system below 0.5 on at least one pair at most seeds.",
	"figure3": "Paper: the four saliency methods name different top-2 attributes for the same wrong prediction. " +
		"Ours: the same divergence is expected; agreement between any two methods is the exception.",
	"figure4": "Paper: copying CERTA's top-2 attributes moves the matching score drastically (e.g. 0.002→0.99 for Ditto) " +
		"while the baselines' choices barely move it. Ours: CERTA's probe should be among the largest movers.",
	"figure5": "Paper: CERTA's counterfactual flips DeepER's 0.01 non-match to 0.54; DiCE's suggestion stays at 0.34 (no flip). " +
		"Ours: CERTA counterfactuals flip by construction; DiCE flips only when its search succeeds.",
	"table2": "Paper: CERTA has the lowest (best) Faithfulness AUC in ~30 of 36 cells; Mojito/SHAP win a handful " +
		"(DS, DDA, FZ). Ours: CERTA should win or tie a plurality of cells, with LIME/SHAP-based methods " +
		"competitive on attribute-sparse datasets.",
	"table3": "Paper: CERTA has the lowest (best) Confidence-Indication MAE in ~29 of 36 cells. " +
		"Ours: CERTA should lead on most cells.",
	"table4": "Paper: CERTA best Proximity on 9/12 (DeepER), 6/12 (DeepMatcher), 11/12 (Ditto) datasets; DiCE second. " +
		"Ours: CERTA and DiCE should lead; SHAP-C/LIME-C trail.",
	"table5": "Paper: CERTA best Sparsity on 6-12 of 12 datasets per model (values ~0.88-0.99). " +
		"Ours: CERTA should lead most cells with values near 1 (few attributes changed).",
	"table6": "Paper: Diversity is led by CERTA and DiCE everywhere; SHAP-C/LIME-C are near 0 " +
		"(they rarely produce 2+ counterfactuals). Ours: the same split.",
	"figure10": "Paper: CERTA generates the most counterfactuals for every model; SHAP-C averages below 1 " +
		"for DeepER/DeepMatcher. Ours: CERTA's column should dominate, SHAP-C/LIME-C lowest.",
	"figure11": "Paper: every measure stabilizes once τ exceeds ~75-80 triangles; diversity keeps growing on DDA/IA. " +
		"Ours: the series should flatten with growing τ.",
	"table7": "Paper: monotonicity saves ~50% of lattice predictions on 3-attribute datasets, 57-64% on 4, ~78% " +
		"on 8 (IA), at a 1-4% error rate. Ours: savings must grow with attribute count at a small error rate.",
	"table8": "Paper: without augmentation CERTA finds 61-90 of the requested 100 triangles on BA/FZ " +
		"(augmentation supplies 10-39%). Ours: natural triangles should fall short of τ, more so on sparse data.",
	"table9": "Paper: forcing augmentation-generated triangles changes each metric by at most a few hundredths, " +
		"often improving it (Tables 9-10). Ours: deltas should be small.",
	"figure12": "Paper: CERTA's top-2 salient attributes coincide with the Actual (masking) top-2 on the BA case " +
		"study, and CERTA's Aggr@k effects are largest at small k. Ours: CERTA should track the Actual column " +
		"most closely among the methods.",
	"latency": "Not in the paper — a systems profile of what each method costs per explanation (wall time and " +
		"black-box model calls). CERTA's cost is dominated by triangle search plus the (pruned) lattice walks.",
	"anytime": "Not in the paper — the anytime serving profile: explanation quality as the per-explanation call " +
		"budget tightens (LEMON observes the analogous graceful degradation under a sampling budget). Expect the " +
		"truncated fraction and completeness to fall with the budget, top-2 saliency agreement with the unlimited " +
		"run to grow with it, and counterfactual validity to stay near 1 (tight budgets lean harder on inferred " +
		"flips, so non-monotone matchers can dip slightly below it).",
}

// WriteReport runs every experiment and writes a markdown report with
// the paper's expected results alongside the measured tables — the
// generator behind EXPERIMENTS.md.
func (h *Harness) WriteReport(w io.Writer) error {
	cfg := h.Config()
	fmt.Fprintln(w, "# EXPERIMENTS — paper vs. measured")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `certa-bench -report`. Every table and figure of the paper's")
	fmt.Fprintln(w, "evaluation (§5) is regenerated against the synthetic benchmarks and the Go")
	fmt.Fprintln(w, "re-implementations of the three ER systems. Absolute values are not expected")
	fmt.Fprintln(w, "to match the paper (different substrate — see the internal/dataset and")
	fmt.Fprintln(w, "internal/matchers package docs); each section")
	fmt.Fprintln(w, "states the paper's result and the shape the reproduction should show.")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "Configuration: seed=%d, ≤%d records/source, ≤%d matches, %d explained pairs "+
		"per (dataset, model) cell, τ=%d, %d LIME samples, %d SHAP coalitions.\n\n",
		cfg.Seed, cfg.MaxRecords, cfg.MaxMatches, cfg.ExplainPairs, cfg.Triangles,
		cfg.LIMESamples, cfg.SHAPSamples)

	for _, e := range Experiments() {
		start := time.Now()
		tables, err := e.Run(h)
		if err != nil {
			return fmt.Errorf("eval: report experiment %s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
		if exp := paperExpectations[e.ID]; exp != "" {
			fmt.Fprintf(w, "%s\n\n", exp)
		}
		for _, t := range tables {
			if err := writeMarkdownTable(w, t); err != nil {
				return err
			}
			// Figures 3/4 and tables 9/10 are emitted together; surface
			// the secondary expectation too.
			if t.ID != e.ID {
				if exp := paperExpectations[t.ID]; exp != "" {
					fmt.Fprintf(w, "%s\n\n", exp)
				}
			}
		}
		fmt.Fprintf(w, "_measured in %s_\n\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// writeMarkdownTable renders one Table as GitHub markdown.
func writeMarkdownTable(w io.Writer, t *Table) error {
	if t.Title != "" {
		fmt.Fprintf(w, "**%s**\n\n", t.Title)
	}
	if len(t.Header) > 0 {
		fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
		sep := make([]string, len(t.Header))
		for i := range sep {
			sep[i] = "---"
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	}
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	if t.Notes != "" {
		fmt.Fprintf(w, "_%s_\n\n", t.Notes)
	}
	return nil
}
