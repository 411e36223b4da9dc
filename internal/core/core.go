// Package core implements CERTA, the paper's contribution: a post-hoc
// local explanation method for ER classifiers that produces saliency
// explanations (probability of necessity per attribute, Eq. 1) and
// counterfactual explanations (perturbed pairs ranked by probability of
// sufficiency, Eqs. 2–3).
//
// Given a prediction M(⟨u,v⟩)=y, CERTA:
//
//  1. collects open triangles — support records w ∈ U with M(⟨w,v⟩)=¬y
//     (left triangles) and q ∈ V with M(⟨u,q⟩)=¬y (right triangles),
//     topping up with token-drop data augmentation when the sources
//     cannot supply τ of them (§3.3);
//  2. for each triangle, explores the power-set lattice of the free
//     record's attributes bottom-up, copying attribute values from the
//     support record (the perturbation ψ) and asking whether the
//     prediction flips; under the monotone-classifier assumption a flip
//     propagates to all supersets without further model calls (§4);
//  3. counts flips to estimate the probability of necessity φ_a of every
//     attribute and the probability of sufficiency χ_A of every changed
//     attribute set, and emits the counterfactuals whose changed set A★
//     maximizes χ with the fewest attributes (Algorithm 1).
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"certa/internal/explain"
	"certa/internal/lattice"
	"certa/internal/neighborhood"
	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/telemetry"
)

// Options tunes the CERTA explainer. The zero value gives the paper's
// defaults: τ=100 triangles, monotone propagation on, data augmentation
// on.
type Options struct {
	// Triangles is τ, the total number of open triangles to use (half
	// left, half right). Default 100 (the paper's setting, §5.3).
	Triangles int
	// NoMonotone disables the monotone-classifier optimization and
	// evaluates every lattice node exactly (the "Expected" baseline of
	// Table 7).
	NoMonotone bool
	// DisableAugmentation turns off the token-drop data augmentation of
	// §3.3, reproducing the Table 8 ablation.
	DisableAugmentation bool
	// ForceAugmentation uses *only* augmented support records even when
	// the sources could supply natural ones, reproducing the Tables 9–10
	// ablation.
	ForceAugmentation bool
	// EvaluateMonotonicity re-tests every lattice node skipped by the
	// monotone optimization and records how many inferences were wrong
	// (Table 7's error rate). Costly; off by default.
	EvaluateMonotonicity bool
	// DisableCache turns off the perturbation score cache, so every
	// lookup reaches the model — the uncached reference that measures
	// what memoization saves. Results are identical either way; only
	// Diagnostics change.
	DisableCache bool
	// AugmentBudget caps the augmented-support search: at most
	// want×AugmentBudget token-drop variants are generated per scan
	// (want being the supports still missing), so pathological models
	// cannot make explanation cost unbounded. Default 200, the
	// historical hard-coded budget.
	AugmentBudget int
	// Retrieval injects a prebuilt candidate retrieval layer
	// (neighborhood.NewSources; certa.NewCandidateIndex publicly): the
	// per-table token indexes the triangle support search streams its
	// candidates from. Build it once and share it — across ExplainBatch,
	// an eval-harness run, or a server backend's lifetime — instead of
	// letting every New rebuild it. The injected sources must have been
	// built over the same left/right tables the explainer is given.
	// When nil, New builds per-Explainer indexes.
	Retrieval *neighborhood.Sources
	// Seed drives candidate shuffling; explanations are deterministic
	// given (Options, model, pair).
	Seed int64
	// CallBudget caps the unique model calls one explanation may spend
	// (0 = unlimited), making Explain an anytime algorithm: when the
	// budget trips at a batch checkpoint, the remaining pipeline stages
	// are skipped and the best-so-far Result is returned with
	// Diagnostics.Truncated set, the budget spent, and a completeness
	// fraction. Truncation is decided by deterministic call accounting
	// against the explanation's private scorer view at batch boundaries,
	// so a truncated Result is byte-identical at any Parallelism and
	// with or without a shared service; the budget can be overshot by at
	// most the batch in flight when it tripped, plus the final
	// counterfactual materialization (normally answered by the cache).
	CallBudget int
	// Deadline is the per-explanation soft wall-clock allowance (0 =
	// none). It maps onto the same cooperative checkpoints as
	// CallBudget: when the clock runs out the explanation stops
	// expanding work and returns the best-so-far Result with
	// Diagnostics.Truncated — it does not abort with an error. Unlike
	// call-budget truncation, where the cut falls depends on real model
	// latency. For hard cancellation use ExplainContext: a cancelled
	// context aborts at the next scoring call and returns ctx.Err().
	Deadline time.Duration
	// Parallelism bounds the worker goroutines of the scoring pipeline:
	// batch evaluations inside one explanation and, for ExplainBatch,
	// concurrent explanations. Default 1; results are identical at any
	// setting.
	Parallelism int
	// LatticePrune cuts lattice exploration early: after each fully
	// explored level, a lattice whose level flip fraction reaches the
	// policy threshold stops asking questions (lattice.PrunePolicy —
	// see its comment for why saturated lattices, not flip-poor ones,
	// are the safe cut). It also shortens the augmented triangle
	// search's barren-stream patience (see prunePatience). The zero
	// value is off and leaves every result byte-identical to an
	// unpruned run.
	//
	// Determinism story: pruning decisions are a pure function of each
	// lattice's own oracle answers — never shared-cache hit patterns,
	// scheduling or Parallelism — so a pruned explanation is itself
	// byte-identical at any Parallelism and with or without a shared
	// service. What changes under pruning is the estimator, exactly as
	// with anytime truncation: saliency and sufficiency are computed from
	// the levels actually explored, and Diagnostics grow
	// PrunedQueries/PruneLevels recording what the cut skipped. Quality
	// is gated by measured saliency agreement against the exact run (see
	// TestPrunedModeKeepsTopAttribution in the certa package), not
	// assumed.
	LatticePrune lattice.PrunePolicy
	// Shared injects a shared scoring service (scorecache.NewService)
	// reused across explanations: every distinct pair content is scored
	// once per service lifetime instead of once per explanation. The
	// service must wrap the same model the explanation is asked to
	// explain. Results and per-explanation Diagnostics are byte-identical
	// with or without sharing — Diagnostics are computed against a
	// per-explanation view — only the service's own ServiceStats reveal
	// the cross-explanation reuse. ExplainBatch creates a per-batch
	// service automatically when none is injected.
	Shared *scorecache.Service
}

// maxLatticeAttrs guards against schemas too wide for power-set
// exploration: a wider free record gets no lattice work (the paper's
// benchmarks have at most 8 attributes).
const maxLatticeAttrs = 12

func (o Options) withDefaults() Options {
	if o.Triangles <= 0 {
		o.Triangles = 100
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	if o.AugmentBudget <= 0 {
		o.AugmentBudget = 200
	}
	return o
}

// Explainer computes CERTA explanations against a pair of sources.
type Explainer struct {
	left  *record.Table
	right *record.Table
	opts  Options
	// sources is the candidate retrieval layer the triangle support
	// search streams from: Options.Retrieval when injected, otherwise
	// built once per Explainer by New.
	sources *neighborhood.Sources
}

// New creates an explainer over the benchmark's two sources U and V.
//
// Unless Options.Retrieval injects a shared one, New builds the
// candidate retrieval index over both tables here — once per Explainer,
// off the per-explanation path. Long-lived callers that construct many
// explainers over the same tables (a serving backend, a harness run)
// should build the index once (neighborhood.NewSources) and inject it.
func New(left, right *record.Table, opts Options) *Explainer {
	e := &Explainer{left: left, right: right, opts: opts.withDefaults()}
	e.sources = e.opts.Retrieval
	if e.sources == nil {
		e.sources = neighborhood.NewSources(left, right)
	}
	return e
}

// Name implements the explainer interfaces.
func (e *Explainer) Name() string { return "CERTA" }

// AttrSet identifies a side-qualified set of attributes (a lattice node).
type AttrSet struct {
	Side  record.Side `json:"side"`
	Attrs []string    `json:"attrs,omitempty"`
}

// Key renders the set canonically, e.g. "L:{description,name}".
func (s AttrSet) Key() string {
	attrs := append([]string(nil), s.Attrs...)
	sort.Strings(attrs)
	return s.Side.String() + ":{" + strings.Join(attrs, ",") + "}"
}

// Refs converts the set into side-qualified attribute references.
func (s AttrSet) Refs() []record.AttrRef {
	out := make([]record.AttrRef, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = record.AttrRef{Side: s.Side, Attr: a}
	}
	return out
}

// Diagnostics reports the work CERTA did for one explanation; the Table 7
// and Table 8 experiments read these, and the batch/cache counters make
// the batched scoring pipeline's savings measurable.
type Diagnostics struct {
	// LeftTriangles and RightTriangles are the numbers of open triangles
	// actually used per side.
	LeftTriangles  int `json:"left_triangles"`
	RightTriangles int `json:"right_triangles"`
	// AugmentedLeft and AugmentedRight count how many of them came from
	// data augmentation.
	AugmentedLeft  int `json:"augmented_left,omitempty"`
	AugmentedRight int `json:"augmented_right,omitempty"`
	// LatticeQueries counts oracle questions asked during lattice
	// exploration — the model calls an unbatched, uncached walk would
	// have paid. LatticePredictions counts the unique model invocations
	// that actually reached the model for them (duplicate perturbations
	// are answered by the score cache, so LatticePredictions <=
	// LatticeQueries). ExpectedPredictions is the exhaustive 2^l-2
	// baseline summed over triangles.
	LatticeQueries      int `json:"lattice_queries"`
	LatticePredictions  int `json:"lattice_predictions"`
	ExpectedPredictions int `json:"expected_predictions"`
	// SavedPredictions = Expected - LatticePredictions: what monotone
	// propagation and score memoization together avoided.
	SavedPredictions int `json:"saved_predictions"`
	// WrongInferences counts monotone inferences contradicted by the
	// model (only populated with Options.EvaluateMonotonicity).
	WrongInferences int `json:"wrong_inferences,omitempty"`
	// TriangleSearchCalls counts score lookups spent finding support
	// records (the chunked batch scan may look slightly past the last
	// support the sequential scan would have stopped at).
	TriangleSearchCalls int `json:"triangle_search_calls"`
	// Flips is the total number of flipped lattice nodes (the f of
	// Algorithm 1).
	Flips int `json:"flips"`
	// ModelCalls counts the unique model invocations of the whole
	// explanation: original score, triangle search, lattice exploration
	// and counterfactual materialization, after deduplication.
	ModelCalls int `json:"model_calls"`
	// BatchCalls counts the batched scoring requests those invocations
	// were grouped into.
	BatchCalls int `json:"batch_calls"`
	// CacheLookups and CacheHits report the perturbation score cache:
	// CacheLookups = CacheHits + ModelCalls.
	CacheLookups int `json:"cache_lookups"`
	CacheHits    int `json:"cache_hits"`
	// Truncated marks an anytime explanation: a budget checkpoint
	// (Options.CallBudget or Options.Deadline) stopped the pipeline
	// before it ran to completion, and the Result is the best
	// explanation obtainable within the limit. Saliency and sufficiency
	// are then estimated from the triangles and lattice levels actually
	// explored; counterfactuals are materialized and re-scored exactly
	// as in a full run (under the monotone-classifier assumption they
	// flip; an inferred-only A★ on a non-monotone model may not, just as
	// without a budget).
	Truncated bool `json:"truncated,omitempty"`
	// TruncatedBy names the limit that tripped first: TruncatedByCallBudget
	// or TruncatedByDeadline. Empty when Truncated is false.
	TruncatedBy string `json:"truncated_by,omitempty"`
	// PrunedQueries counts lattice questions skipped by
	// Options.LatticePrune: nodes above a lattice's prune cut that neither
	// monotone propagation nor the oracle ever settled. PruneLevels totals
	// the levels those cuts skipped across all lattices of the
	// explanation. Both are zero (and absent on the wire) when pruning is
	// off, keeping default output byte-identical to an unpruned build.
	PrunedQueries int `json:"pruned_queries,omitempty"`
	PruneLevels   int `json:"prune_levels,omitempty"`
	// BudgetSpent is the unique model calls charged against CallBudget —
	// the explanation's private-view misses, equal to ModelCalls. It is
	// reported separately so budget accounting reads explicitly.
	BudgetSpent int `json:"budget_spent"`
	// Completeness is the fraction of the planned pipeline phases this
	// explanation completed, in [0,1]: each per-side triangle scan and
	// lattice exploration counts one unit, scored by how far it got
	// before a checkpoint cut it. 1 when Truncated is false.
	Completeness float64 `json:"completeness"`
}

// CacheHitRate returns CacheHits/CacheLookups, or 0 before any lookup.
func (d Diagnostics) CacheHitRate() float64 {
	if d.CacheLookups == 0 {
		return 0
	}
	return float64(d.CacheHits) / float64(d.CacheLookups)
}

// Result is a full CERTA explanation. The JSON tags define the stable
// wire schema served by the HTTP API (internal/server) and printed by
// certa-explain -json; a golden-file round-trip test guards it against
// silent drift.
type Result struct {
	// Saliency holds the probability of necessity per attribute (Eq. 1).
	Saliency *explain.Saliency `json:"saliency"`
	// Counterfactuals are the examples whose changed attribute set is A★
	// (Eq. 3), annotated with the recomputed model score.
	Counterfactuals []explain.Counterfactual `json:"counterfactuals,omitempty"`
	// BestSet is A★ and BestSufficiency its χ value.
	BestSet         AttrSet `json:"best_set"`
	BestSufficiency float64 `json:"best_sufficiency"`
	// Sufficiency maps every flipped attribute set (by Key()) to its χ.
	Sufficiency map[string]float64 `json:"sufficiency,omitempty"`
	// Diag reports the work performed.
	Diag Diagnostics `json:"diagnostics"`
}

// newScorer opens the explanation's memoizing scorer view: over the
// injected shared service when Options.Shared is set, and over a fresh
// private store otherwise. The view's statistics are private-equivalent
// either way, which is what keeps Diagnostics deterministic under
// sharing.
func (e *Explainer) newScorer(m explain.Model) (*scorecache.Scorer, error) {
	vopts := scorecache.Options{
		Parallelism: e.opts.Parallelism,
		Disabled:    e.opts.DisableCache,
	}
	if e.opts.Shared != nil {
		if e.opts.Shared.Name() != m.Name() {
			return nil, fmt.Errorf("core: shared scoring service wraps model %q, cannot explain model %q",
				e.opts.Shared.Name(), m.Name())
		}
		return e.opts.Shared.NewScorer(vopts), nil
	}
	return scorecache.New(m, vopts), nil
}

// Explain runs the CERTA algorithm (Algorithm 1) for one prediction.
//
// All model access flows through a memoizing batch scorer: triangle
// search scores candidates in chunks, each lattice level is evaluated in
// one batch across every triangle of a side, and duplicate perturbations
// — which recur heavily across triangles that share support records or
// copied values — reach the model exactly once. With Options.Shared the
// memo additionally spans explanations: pairs another explanation
// already paid for are answered from the shared store.
func (e *Explainer) Explain(m explain.Model, p record.Pair) (*Result, error) {
	return e.ExplainContext(context.Background(), m, p)
}

// ExplainContext is Explain under a caller context: cancellation aborts
// the explanation at the next scoring call and returns ctx.Err().
// Options.Deadline and Options.CallBudget, by contrast, do not abort —
// they truncate, turning Explain into an anytime algorithm that returns
// the best explanation obtainable within the limit (see
// Diagnostics.Truncated).
func (e *Explainer) ExplainContext(ctx context.Context, m explain.Model, p record.Pair) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Left == nil || p.Right == nil {
		return nil, fmt.Errorf("core: pair has nil record")
	}
	if e.sources.Left.Table() != e.left || e.sources.Right.Table() != e.right {
		return nil, fmt.Errorf("core: Options.Retrieval indexes different tables than the explainer's sources")
	}
	sc, err := e.newScorer(m)
	if err != nil {
		return nil, err
	}
	// The view's key set goes back to the pool for the next explanation;
	// nothing below hands the view to another goroutine.
	defer sc.Release()
	bud := newRunBudget(sc, e.opts)
	prog := &progress{}
	// Telemetry spans time the stages of this explanation when the
	// serving layer put a telemetry.Trace on ctx (no-ops otherwise).
	// They are a wall-clock side channel in the sense of the PR 6
	// FlipHits split: nothing in Diagnostics or the Result depends on
	// them, so byte-identity at any Parallelism is untouched.
	spOrig, octx := telemetry.StartSpan(ctx, "original_score")
	origScores, err := sc.ScoreBatchContext(octx, []record.Pair{p})
	spOrig.End()
	if err != nil {
		return nil, err
	}
	origScore := origScores[0]
	y := origScore > 0.5

	spTri, tctx := telemetry.StartSpan(ctx, "triangles")
	tri, err := e.findTriangles(tctx, bud, prog, sc, p, y)
	spTri.End()
	if err != nil {
		return nil, err
	}

	res := &Result{
		Saliency:    explain.NewSaliency(p, origScore),
		Sufficiency: make(map[string]float64),
	}
	res.Diag.TriangleSearchCalls = tri.searchCalls
	res.Diag.LeftTriangles = len(tri.left)
	res.Diag.RightTriangles = len(tri.right)
	res.Diag.AugmentedLeft = tri.augLeft
	res.Diag.AugmentedRight = tri.augRight

	// Per-side lattice exploration.
	leftCounts, err := e.exploreSide(ctx, bud, prog, sc, p, y, record.Left, tri.left, &res.Diag)
	if err != nil {
		return nil, err
	}
	rightCounts, err := e.exploreSide(ctx, bud, prog, sc, p, y, record.Right, tri.right, &res.Diag)
	if err != nil {
		return nil, err
	}
	res.Diag.SavedPredictions = res.Diag.ExpectedPredictions - res.Diag.LatticePredictions

	// Necessity (Eq. 1): φ_a = N[a] / f, with f the global flip count
	// across both sides' lattices.
	f := leftCounts.flips + rightCounts.flips
	res.Diag.Flips = f
	if f > 0 {
		for ref, n := range leftCounts.necessity {
			res.Saliency.Scores[ref] = float64(n) / float64(f)
		}
		for ref, n := range rightCounts.necessity {
			res.Saliency.Scores[ref] = float64(n) / float64(f)
		}
	}

	// Sufficiency (Eq. 2): χ_A = S[A] / |T_side|. Algorithm 1 divides by
	// |T|; the paper's worked example (§4) divides by the number of
	// triangles on the set's own side, which is the probability the text
	// defines — we follow the worked example.
	best := AttrSet{}
	bestChi := -1.0
	bestSize := 1 << 30
	consider := func(counts *sideCounts, nTri int) {
		if nTri == 0 {
			return
		}
		// Deterministic iteration order.
		keys := make([]lattice.Mask, 0, len(counts.sufficiency))
		for mask := range counts.sufficiency {
			keys = append(keys, mask)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, mask := range keys {
			set := counts.attrSet(mask)
			chi := float64(counts.sufficiency[mask]) / float64(nTri)
			res.Sufficiency[set.Key()] = chi
			sz := mask.Count()
			if chi > bestChi || (chi == bestChi && sz < bestSize) {
				bestChi = chi
				bestSize = sz
				best = set
			}
		}
	}
	consider(leftCounts, len(tri.left))
	consider(rightCounts, len(tri.right))

	if bestChi > 0 {
		res.BestSet = best
		res.BestSufficiency = bestChi
		// Materialization runs even under a tripped budget: the scores it
		// asks for were (almost always) already paid for during lattice
		// exploration, and an anytime result should keep its
		// counterfactual examples.
		spCF, cctx := telemetry.StartSpan(ctx, "counterfactuals")
		res.Counterfactuals, err = e.buildCounterfactuals(cctx, sc, p, origScore, best, leftCounts, rightCounts, bestChi)
		spCF.End()
		if err != nil {
			return nil, err
		}
	}

	st := sc.Stats()
	res.Diag.ModelCalls = st.Misses
	res.Diag.BatchCalls = st.Batches
	res.Diag.CacheLookups = st.Lookups
	res.Diag.CacheHits = st.Hits
	res.Diag.Truncated = bud.truncated
	res.Diag.TruncatedBy = bud.by
	res.Diag.BudgetSpent = st.Misses
	res.Diag.Completeness = prog.fraction()
	return res, nil
}

// sideCounts accumulates per-side flip statistics.
type sideCounts struct {
	side  record.Side
	attrs []string // schema attrs of the free record's side

	flips       int
	necessity   map[record.AttrRef]int
	sufficiency map[lattice.Mask]int
	// supports lists, per flipped mask, the support records whose
	// triangle flipped it (for counterfactual materialization).
	supports map[lattice.Mask][]*record.Record
}

func (c *sideCounts) attrSet(mask lattice.Mask) AttrSet {
	var names []string
	for _, i := range mask.Elems() {
		names = append(names, c.attrs[i])
	}
	return AttrSet{Side: c.side, Attrs: names}
}

// exploreSide runs the lattice exploration for every triangle of one
// side and aggregates the counters. The triangles advance level by level
// in lock step: all of a level's oracle questions, across every
// triangle, become one batched (and deduplicated) scoring call — and
// every level boundary is an anytime checkpoint: a tripped budget stops
// the walk there, keeping the levels already explored as the best-so-far
// estimate.
func (e *Explainer) exploreSide(ctx context.Context, bud *runBudget, prog *progress, sc *scorecache.Scorer, p record.Pair, y bool, side record.Side, supports []*record.Record, diag *Diagnostics) (*sideCounts, error) {
	free := p.Record(side)
	counts := &sideCounts{
		side:        side,
		attrs:       free.Schema.Attrs,
		necessity:   make(map[record.AttrRef]int),
		sufficiency: make(map[lattice.Mask]int),
		supports:    make(map[lattice.Mask][]*record.Record),
	}
	n := len(counts.attrs)
	if n == 0 || n > maxLatticeAttrs || len(supports) == 0 {
		return counts, nil
	}

	// One span per side; each lock-step level batch records a child
	// below (the oracle closure), so the trace attributes lattice time
	// per level.
	spSide, ctx := telemetry.StartSpan(ctx, "lattice/"+side.String())
	defer spSide.End()

	// Each oracle question is a keyed score lookup, answered by the
	// class of the score (score > 0.5 against y, as the support scan
	// decides). Most questions repeat perturbations some lattice already
	// asked: the keyers assemble each question's store key without
	// cloning a record, so the view and the shared store answer
	// known subsets with zero materialization — pairs are built only for
	// true misses. A level's keys are written into one builder and cut
	// from its string.
	keyers := sc.PerturbKeyers(p, side, supports)
	var keys []string
	oracle := func(qs []lattice.Query) ([]bool, error) {
		n := 0
		for _, q := range qs {
			n += keyers[q.Lattice].Len()
		}
		var b strings.Builder
		b.Grow(n)
		for _, q := range qs {
			keyers[q.Lattice].WriteKey(&b, uint32(q.Mask))
		}
		all := b.String()
		keys = keys[:0]
		for _, q := range qs {
			k := keyers[q.Lattice].Len()
			keys = append(keys, all[:k])
			all = all[k:]
		}
		// The lock-step exploration batches one level at a time, so one
		// oracle call is one lattice level across every triangle.
		qctx := ctx
		var sp *telemetry.Span
		if len(qs) > 0 {
			sp, qctx = telemetry.StartSpan(ctx, "lattice/level"+strconv.Itoa(qs[0].Mask.Count()))
			sp.AddItems(len(qs))
		}
		scores, err := sc.ScoreBatchKeyedContext(qctx, keys, func(i int) record.Pair {
			q := qs[i]
			return perturb(p, side, supports[q.Lattice], counts.attrs, q.Mask)
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		flips := make([]bool, len(scores))
		for i, score := range scores {
			flips[i] = (score > 0.5) != y
		}
		return flips, nil
	}

	before := sc.Stats().Misses
	results, err := lattice.ExploreManyOpts(n, len(supports), oracle, lattice.ExploreOptions{
		Monotone: !e.opts.NoMonotone,
		Stop:     bud.exhausted,
		Prune:    e.opts.LatticePrune,
	})
	if err != nil {
		return nil, err
	}
	diag.LatticePredictions += sc.Stats().Misses - before
	// A pruned lattice is complete by policy, never Truncated; with
	// pruning on, the budget checkpoint may have marked some lattices
	// Truncated while others had already pruned themselves out.
	truncated := false
	levelsDone := 0
	for _, lr := range results {
		if lr.Truncated {
			truncated = true
			levelsDone = lr.LevelsDone
			break
		}
	}
	if truncated && n > 1 {
		prog.phase(float64(levelsDone) / float64(n-1))
	} else {
		prog.phase(1)
	}

	if e.opts.EvaluateMonotonicity && !e.opts.NoMonotone && !truncated {
		// CompareExact's model calls are bookkeeping, not part of the
		// algorithm's cost; they bypass the scorer entirely so no cost
		// or cache counter sees them.
		raw := sc.Underlying()
		for idx, lr := range results {
			if lr.Pruned {
				// A pruned lattice deliberately left nodes untagged;
				// CompareExact would charge those as wrong inferences, which
				// they are not — they are the policy's accepted unknowns,
				// reported via PrunedQueries instead.
				continue
			}
			w := supports[idx]
			exact := func(mask lattice.Mask) bool {
				perturbed := perturb(p, side, w, counts.attrs, mask)
				return (raw.Score(perturbed) > 0.5) != y
			}
			_, wrong := lattice.CompareExact(lr, exact)
			diag.WrongInferences += wrong
		}
	}

	full := lattice.Mask(1<<uint(n)) - 1
	for idx, lr := range results {
		diag.LatticeQueries += lr.Performed
		diag.ExpectedPredictions += lr.Expected
		if lr.Pruned {
			diag.PrunedQueries += lr.PrunedQueries
			diag.PruneLevels += (n - 1) - lr.LevelsDone
		}
		for _, mask := range lr.Flipped() {
			counts.flips++
			for _, ai := range mask.Elems() {
				counts.necessity[record.AttrRef{Side: side, Attr: counts.attrs[ai]}]++
			}
			if mask != full { // Eq. 3 excludes the full attribute set
				counts.sufficiency[mask]++
				counts.supports[mask] = append(counts.supports[mask], supports[idx])
			}
		}
	}
	return counts, nil
}

// perturb applies ψ(free, w, A): copy the attribute values selected by
// mask from the support record into the free record.
func perturb(p record.Pair, side record.Side, w *record.Record, attrs []string, mask lattice.Mask) record.Pair {
	vals := make(map[string]string, mask.Count())
	for _, ai := range mask.Elems() {
		vals[attrs[ai]] = w.Value(attrs[ai])
	}
	return p.WithRecord(side, p.Record(side).WithValues(vals))
}

// buildCounterfactuals materializes the counterfactual examples for A★:
// one per support record whose triangle flipped exactly that set. Their
// scores were asked during lattice exploration whenever A★ was tested
// directly, so the batched lookup below is normally answered entirely by
// the cache (an inferred-only A★ pays a small, deterministic overshoot).
func (e *Explainer) buildCounterfactuals(ctx context.Context, sc *scorecache.Scorer, p record.Pair, origScore float64, best AttrSet, left, right *sideCounts, chi float64) ([]explain.Counterfactual, error) {
	counts := left
	if best.Side == record.Right {
		counts = right
	}
	mask := maskFor(counts.attrs, best.Attrs)
	// Every perturbation keeps the free record's schema and ID and the
	// fixed record, so two are the same record exactly when their store
	// keys are equal.
	var cps []record.Pair
	var keys []string
	seen := make(map[string]bool)
	for _, w := range counts.supports[mask] {
		cp := perturb(p, best.Side, w, counts.attrs, mask)
		key := sc.Key(cp)
		if seen[key] {
			continue // identical perturbations from duplicate supports
		}
		seen[key] = true
		cps = append(cps, cp)
		keys = append(keys, key)
	}
	if len(cps) == 0 {
		return nil, nil
	}
	scores, err := sc.ScoreBatchKeyedContext(ctx, keys, func(i int) record.Pair { return cps[i] })
	if err != nil {
		return nil, err
	}
	var out []explain.Counterfactual
	for i, cp := range cps {
		cf := explain.Counterfactual{
			Original:    p,
			Pair:        cp,
			Changed:     changedRefs(p, cp, best.Side),
			Score:       scores[i],
			Probability: chi,
		}.WithOriginalScore(origScore)
		out = append(out, cf)
	}
	return out, nil
}

func maskFor(attrs, subset []string) lattice.Mask {
	var m lattice.Mask
	for i, a := range attrs {
		for _, s := range subset {
			if a == s {
				m |= 1 << uint(i)
			}
		}
	}
	return m
}

// changedRefs lists attributes that actually differ between the original
// and the perturbed pair (copying an identical value changes nothing).
func changedRefs(orig, perturbed record.Pair, side record.Side) []record.AttrRef {
	var out []record.AttrRef
	o, c := orig.Record(side), perturbed.Record(side)
	for _, a := range o.ChangedAttrs(c) {
		out = append(out, record.AttrRef{Side: side, Attr: a})
	}
	return out
}

// ExplainSaliency implements explain.SaliencyExplainer.
func (e *Explainer) ExplainSaliency(m explain.Model, p record.Pair) (*explain.Saliency, error) {
	res, err := e.Explain(m, p)
	if err != nil {
		return nil, err
	}
	return res.Saliency, nil
}

// ExplainCounterfactuals implements explain.CounterfactualExplainer.
func (e *Explainer) ExplainCounterfactuals(m explain.Model, p record.Pair) ([]explain.Counterfactual, error) {
	res, err := e.Explain(m, p)
	if err != nil {
		return nil, err
	}
	return res.Counterfactuals, nil
}
