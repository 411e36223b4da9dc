// Package certa is a Go implementation of CERTA — "Effective
// Explanations for Entity Resolution Models" (Teofili et al., ICDE
// 2022): post-hoc, model-agnostic saliency and counterfactual
// explanations for entity-resolution classifiers.
//
// CERTA explains a single prediction M(⟨u,v⟩) by building open
// triangles: support records from the two sources whose pairing with the
// pivot record is predicted oppositely. Copying attribute values from a
// support record into the free record perturbs the input; walking the
// power-set lattice of attribute subsets under a monotone-classifier
// assumption identifies the minimal attribute sets that flip the
// prediction. Flip frequencies yield the probability of necessity of
// each attribute (the saliency explanation) and the probability of
// sufficiency of each attribute set (ranking the counterfactual
// explanations).
//
// # Quick start
//
//	bench, _ := certa.GenerateBenchmark("AB", certa.BenchmarkOptions{Seed: 1})
//	model, _ := certa.TrainMatcher(certa.Ditto, bench, certa.MatcherConfig{Seed: 1})
//	explainer := certa.New(bench.Left, bench.Right, certa.Options{Triangles: 100})
//	res, _ := explainer.Explain(model, bench.Test[0].Pair)
//	fmt.Println(res.Saliency)          // probability of necessity per attribute
//	fmt.Println(res.Counterfactuals)   // perturbed pairs that flip the prediction
//
// Any classifier can be explained by wrapping a score function:
//
//	model := certa.MatcherFunc("mine", func(p certa.Pair) float64 { ... })
//
// # Batched and shared scoring
//
// Explanation cost is dominated by model calls, so the whole scoring
// path is batched: triangle search, lattice exploration and the baseline
// explainers' sampling all group their queries into batches, duplicate
// perturbations are answered by a score cache, and models that implement
// BatchModel (all built-in matchers do) featurize a batch at once.
//
// The cache is a shared, concurrency-safe scoring service that lives for
// a whole batch or serving run, not a per-explanation scratchpad:
// ExplainBatch scores every explanation through one service, so pair
// contents that recur across explanations — support candidates scanned
// against a shared pivot record, perturbations repeated between
// neighboring candidate pairs — reach the model once per run instead of
// once per explanation, and two concurrent explanations that miss on the
// same content trigger exactly one model call (in-flight deduplication).
// Long-lived servers create the service themselves, optionally bounding
// its memory, and inject it:
//
//	svc := certa.NewScoringService(model, certa.ScoringServiceOptions{
//		Parallelism: 8, Capacity: 1 << 20, // sharded LRU bound
//	})
//	results, _ := certa.ExplainBatch(model, bench.Left, bench.Right, pairs,
//		certa.Options{Triangles: 100, Parallelism: 8, Shared: svc})
//	fmt.Println(results[0].Diag.ModelCalls)     // unique calls a private cache would make
//	fmt.Println(results[0].Diag.CacheHitRate()) // per-explanation perturbation reuse
//	fmt.Println(svc.Stats().Misses)             // unique model calls of the whole run
//
// The determinism contract: results and per-explanation Diagnostics are
// byte-identical with or without a shared service, at any Parallelism.
// Diagnostics are computed against per-explanation views of the store
// and report what a private cache would have; only ServiceStats reveal
// the cross-explanation reuse.
//
// # The candidate retrieval layer
//
// Before any model call, an explanation must find support records: the
// triangle search streams each source table in deterministic candidate
// orders (a seeded shuffle, and an overlap ranking against the pivot
// record). That retrieval work runs off a prebuilt per-table token
// index — interned token sets, IDF-weighted postings, cached record
// texts — built once per Explainer, or once per deployment when shared
// explicitly:
//
//	idx := certa.NewCandidateIndex(bench.Left, bench.Right)
//	results, _ := certa.ExplainBatch(model, bench.Left, bench.Right, pairs,
//		certa.Options{Triangles: 100, Retrieval: idx})
//
// The serving subsystem builds one index per backend at startup and the
// token blocker consumes the same index, so tokenization exists exactly
// once in the system. The historical unindexed scan (per-explanation
// tokenization + full sort) survives only as the equivalence tests'
// reference; results are byte-identical either way.
//
// # Serving semantics: deadlines, budgets, cancellation
//
// Explain is an anytime algorithm. Serving-scale callers bound each
// explanation with Options.CallBudget (maximum unique model calls) or
// Options.Deadline (per-explanation wall-clock allowance); when a limit
// trips at one of the pipeline's batch checkpoints, the remaining stages
// are skipped and the best explanation obtainable within the limit is
// returned, flagged in Diagnostics.Truncated with the budget spent and a
// completeness fraction. Call-budget truncation is deterministic:
// byte-identical at any Parallelism, with or without a shared service.
//
// Hard cancellation is a context: ExplainContext and ExplainBatchContext
// abort at the next scoring checkpoint and return ctx.Err() — a
// cancelled batch never starts its remaining explanations.
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	results, err := certa.ExplainBatchContext(ctx, model, bench.Left, bench.Right,
//	    pairs, certa.Options{Triangles: 100, CallBudget: 200})
//	if err != nil {
//	    return err // ctx.Err() when the 2s timeout cancelled the batch
//	}
//	if results[0].Diag.Truncated {
//	    fmt.Println(results[0].Diag.TruncatedBy, results[0].Diag.Completeness)
//	}
//
// Models that can abandon in-flight work (an RPC-backed matcher, say)
// implement ContextModel; everything else is adapted with a per-batch
// cancellation check.
//
// # The HTTP serving subsystem
//
// NewServer assembles all of the above into a JSON HTTP API (the
// cmd/certa-serve daemon is the ready-made wrapper): per-backend
// long-lived scoring services, admission control (bounded in-flight
// explanations, bounded fair FIFO queue, 429 + Retry-After on
// overload), request coalescing (identical in-flight requests share one
// computation and receive byte-identical bodies), client-disconnect
// cancellation, and per-request deadline_ms/call_budget/top_k knobs
// mapped onto the anytime options. The shared score cache persists
// across restarts via ScoringService.Snapshot/Restore — a server
// restarted from its snapshot answers repeat workloads without model
// calls.
//
// The package also ships the three DL-style ER systems the paper
// evaluates (DeepER, DeepMatcher, Ditto), the baseline explainers it
// compares against (Mojito, LandMark, SHAP, DiCE, LIME-C, SHAP-C), the
// twelve synthetic benchmark generators, and the paper's evaluation
// metrics — see the cmd/certa-bench tool for regenerating every table
// and figure of the paper.
package certa

import (
	"context"
	"fmt"

	"certa/internal/baselines"
	"certa/internal/blocking"
	"certa/internal/core"
	"certa/internal/dataset"
	"certa/internal/explain"
	"certa/internal/lattice"
	"certa/internal/lime"
	"certa/internal/matchers"
	"certa/internal/metrics"
	"certa/internal/neighborhood"
	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/server"
	"certa/internal/shap"
)

// Core data model (see internal/record).
type (
	// Record is a structured entity description.
	Record = record.Record
	// Schema names a source and its ordered attributes.
	Schema = record.Schema
	// Pair is the unit of ER prediction (left record, right record).
	Pair = record.Pair
	// LabeledPair is a pair with its ground-truth match label.
	LabeledPair = record.LabeledPair
	// Table is a collection of records sharing a schema.
	Table = record.Table
	// AttrRef is a side-qualified attribute reference (L_name, R_price).
	AttrRef = record.AttrRef
	// Side selects the left (U) or right (V) source.
	Side = record.Side
)

// Source sides.
const (
	// Left is the U source.
	Left = record.Left
	// Right is the V source.
	Right = record.Right
)

// Explanation types (see internal/explain).
type (
	// Model is the black-box classifier interface every explainer
	// accepts: Score returns the matching probability in [0,1].
	Model = explain.Model
	// BatchModel is the optional batch-scoring capability: models that
	// implement ScoreBatch([]Pair) []float64 serve the explainers'
	// grouped queries in one call. Plain Models are adapted
	// automatically.
	BatchModel = explain.BatchModel
	// ContextModel is the optional cancellation-aware capability: models
	// that implement ScoreBatchContext(ctx, []Pair) ([]float64, error)
	// can abandon in-flight scoring when the caller's context is
	// cancelled (an RPC-backed matcher forwards ctx to its transport).
	// Plain Models are adapted with a per-batch cancellation check.
	ContextModel = explain.ContextModel
	// Saliency maps each attribute to its importance for one prediction.
	Saliency = explain.Saliency
	// Counterfactual is a perturbed pair that flips the prediction.
	Counterfactual = explain.Counterfactual
	// SaliencyExplainer produces saliency explanations.
	SaliencyExplainer = explain.SaliencyExplainer
	// CounterfactualExplainer produces counterfactual examples.
	CounterfactualExplainer = explain.CounterfactualExplainer
)

// CERTA itself (see internal/core).
type (
	// Explainer computes CERTA explanations against two sources.
	Explainer = core.Explainer
	// Options tunes CERTA (τ, monotonicity, augmentation...).
	Options = core.Options
	// Result is a full CERTA explanation (saliency + counterfactuals +
	// diagnostics).
	Result = core.Result
	// AttrSet is a side-qualified set of attributes (a lattice node).
	AttrSet = core.AttrSet
	// Diagnostics reports the work one explanation performed.
	Diagnostics = core.Diagnostics
	// TokenScore is a token-level saliency entry (the paper's §6
	// future-work extension, implemented by Explainer.TokenSaliency).
	TokenScore = core.TokenScore
	// TokenOptions tunes the token-level refinement.
	TokenOptions = core.TokenOptions
	// PrunePolicy is the lattice-level pruning policy
	// (Options.LatticePrune): stop exploring a lattice once a completed
	// level's flip fraction reaches Threshold — under monotone
	// propagation the deeper questions of such a saturated lattice are
	// mostly already answered for free. Pruning decisions
	// depend only on each lattice's own oracle answers, so pruned
	// results stay byte-identical at any Parallelism; the zero policy is
	// exact exploration.
	PrunePolicy = lattice.PrunePolicy
)

// New creates a CERTA explainer over the two sources U and V.
func New(left, right *Table, opts Options) *Explainer {
	return core.New(left, right, opts)
}

// ExplainBatch explains many predictions against the sources U and V,
// fanning the pairs out over opts.Parallelism workers while every
// explanation batches its model calls through one shared scoring
// service (opts.Shared when set, a per-batch service otherwise), so
// pair contents recurring across explanations are scored once per run.
// Results are index-aligned with pairs and identical to a sequential
// loop of Explainer.Explain calls at any parallelism.
func ExplainBatch(m Model, left, right *Table, pairs []Pair, opts Options) ([]*Result, error) {
	return core.New(left, right, opts).ExplainBatch(m, pairs)
}

// ExplainBatchContext is ExplainBatch under a caller context: a
// cancelled ctx fail-fast-cancels the batch — explanations not yet
// started never run, in-flight ones abort at their next scoring call —
// and ctx.Err() is returned. Combine with Options.Deadline and
// Options.CallBudget for per-explanation anytime limits, which truncate
// (Diagnostics.Truncated) instead of erroring.
func ExplainBatchContext(ctx context.Context, m Model, left, right *Table, pairs []Pair, opts Options) ([]*Result, error) {
	return core.New(left, right, opts).ExplainBatchContext(ctx, m, pairs)
}

// Truncation reasons reported in Diagnostics.TruncatedBy.
const (
	// TruncatedByCallBudget marks explanations cut short by Options.CallBudget.
	TruncatedByCallBudget = core.TruncatedByCallBudget
	// TruncatedByDeadline marks explanations cut short by Options.Deadline.
	TruncatedByDeadline = core.TruncatedByDeadline
)

// Shared scoring service (see internal/scorecache).
type (
	// ScoringService is a shared, concurrency-safe score store: one
	// sharded cache with in-flight deduplication, meant to live for a
	// whole batch, harness or serving run. Inject it via Options.Shared
	// to make every explanation of a workload reuse each other's model
	// calls. It implements Model and BatchModel, so it can also be
	// handed directly to the baseline explainers.
	ScoringService = scorecache.Service
	// ScoringServiceOptions tunes the service: evaluation parallelism,
	// lock striping, and an optional capacity bound (sharded LRU) so
	// unbounded workloads cannot grow memory without limit.
	ScoringServiceOptions = scorecache.ServiceOptions
	// ScoringServiceStats reports a service's aggregate reuse: Misses
	// counts the unique model calls of the whole run.
	ScoringServiceStats = scorecache.ServiceStats
)

// NewScoringService wraps a model in a shared scoring service for use
// across many explanations (Options.Shared).
func NewScoringService(m Model, opts ScoringServiceOptions) *ScoringService {
	return scorecache.NewService(m, opts)
}

// The candidate retrieval layer (see internal/neighborhood): the
// per-table token index CERTA's triangle support search streams its
// candidates from. New builds one per Explainer automatically; build it
// once with NewCandidateIndex and inject it via Options.Retrieval to
// share it across ExplainBatch runs, an eval harness, or a server
// backend's lifetime — the retrieval work (tokenization, IDF postings,
// cached record texts) then happens at startup instead of on every
// request.
type (
	// CandidateIndex bundles the prebuilt retrieval indexes of a
	// benchmark's two sources (Options.Retrieval).
	CandidateIndex = neighborhood.Sources
	// CandidateSource streams one table's records in the deterministic
	// orders the triangle support search consumes (seeded shuffle,
	// overlap ranking).
	CandidateSource = neighborhood.CandidateSource
	// CandidateStream is a pull iterator over candidate records.
	CandidateStream = neighborhood.Stream
	// CandidateIndexStats reports an index's build-time footprint
	// (records, distinct tokens, build milliseconds).
	CandidateIndexStats = neighborhood.Stats
)

// NewCandidateIndex builds the immutable candidate retrieval indexes
// over the two sources. The same tables must be handed to New /
// ExplainBatch / the server backend alongside it.
func NewCandidateIndex(left, right *Table) *CandidateIndex {
	return neighborhood.NewSources(left, right)
}

// The explanation-serving subsystem (see internal/server): an HTTP JSON
// API over the engine with admission control (bounded in-flight
// explanations + bounded FIFO queue, 429 + Retry-After on overload),
// request coalescing (identical in-flight requests share one
// computation and receive byte-identical bodies), client-disconnect
// cancellation, and per-request anytime knobs (deadline_ms,
// call_budget, top_k). cmd/certa-serve is the ready-made daemon;
// embedders plug Server into any http.Server.
type (
	// Server is the HTTP explanation-serving subsystem (an http.Handler).
	Server = server.Server
	// ServerOptions tunes the serving layers (admission bounds, body
	// limits).
	ServerOptions = server.Options
	// ServerBackend configures one served (sources, model) pair with its
	// long-lived shared scoring service.
	ServerBackend = server.Backend

	// ExplainRequest is the POST /v1/explain wire request; certa-explain
	// -json emits the matching ExplainResponse so CLI and server share
	// one schema.
	ExplainRequest = server.ExplainRequest
	// ExplainResponse is the POST /v1/explain wire response (and one
	// element of a batch response).
	ExplainResponse = server.ExplainResponse
	// BatchRequest is the POST /v1/explain/batch wire request.
	BatchRequest = server.BatchRequest
	// BatchResponse is the POST /v1/explain/batch wire response.
	BatchResponse = server.BatchResponse
)

// NewServer builds the HTTP explanation-serving subsystem over the
// given backends. Backends may inject a ScoringService restored from a
// Snapshot so the server starts warm; Server.Snapshot writes one back
// out on shutdown.
func NewServer(backends []ServerBackend, opts ServerOptions) (*Server, error) {
	return server.New(backends, opts)
}

// ScoreBatch scores every pair with m, through its native batch entry
// point when it implements BatchModel and one Score call per pair
// otherwise.
func ScoreBatch(m Model, pairs []Pair) []float64 {
	return explain.ScoreBatch(m, pairs)
}

// ScoreBatchContext scores every pair with m under ctx, through the
// native context entry point when m implements ContextModel and a
// per-batch cancellation check otherwise.
func ScoreBatchContext(ctx context.Context, m Model, pairs []Pair) ([]float64, error) {
	return explain.ScoreBatchContext(ctx, m, pairs)
}

// NewSchema builds a schema, validating attribute names.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	return record.NewSchema(name, attrs...)
}

// NewRecord builds a record for a schema.
func NewRecord(id string, schema *Schema, values ...string) (*Record, error) {
	return record.New(id, schema, values...)
}

// NewTable creates an empty table for a schema.
func NewTable(schema *Schema) *Table { return record.NewTable(schema) }

// matcherFunc adapts a plain scoring function to Model.
type matcherFunc struct {
	name string
	fn   func(Pair) float64
}

func (m matcherFunc) Name() string         { return m.name }
func (m matcherFunc) Score(p Pair) float64 { return m.fn(p) }

// MatcherFunc wraps a scoring function as a Model so arbitrary
// classifiers can be explained.
func MatcherFunc(name string, fn func(Pair) float64) Model {
	return matcherFunc{name: name, fn: fn}
}

// Benchmarks (see internal/dataset).
type (
	// Benchmark is a generated two-source ER dataset with splits.
	Benchmark = dataset.Benchmark
	// BenchmarkOptions scales generation.
	BenchmarkOptions = dataset.Options
	// BenchmarkSpec describes one of the twelve paper benchmarks.
	BenchmarkSpec = dataset.Spec
)

// BenchmarkCodes lists the twelve paper benchmarks (AB, AG, BA, DA, DS,
// FZ, IA, WA, DDA, DDS, DIA, DWA).
func BenchmarkCodes() []string { return dataset.Codes() }

// GenerateBenchmark synthesizes one of the twelve paper benchmarks.
func GenerateBenchmark(code string, opts BenchmarkOptions) (*Benchmark, error) {
	return dataset.Generate(code, opts)
}

// ER systems (see internal/matchers).
type (
	// Matcher is a trained ER model (implements Model).
	Matcher = matchers.Model
	// MatcherKind selects DeepER, DeepMatcher, Ditto or SVM.
	MatcherKind = matchers.Kind
	// MatcherConfig tunes training.
	MatcherConfig = matchers.Config
)

// The ER systems evaluated in the paper, plus a linear baseline.
const (
	// DeepER is the record-level LSTM-style system.
	DeepER = matchers.DeepER
	// DeepMatcher is the attribute-level Hybrid system.
	DeepMatcher = matchers.DeepMatcher
	// Ditto is the sequence-level transformer-style system.
	Ditto = matchers.Ditto
	// SVM is a classic linear baseline.
	SVM = matchers.SVM
)

// TrainMatcher fits one of the ER systems on a benchmark.
func TrainMatcher(kind MatcherKind, b *Benchmark, cfg MatcherConfig) (*Matcher, error) {
	return matchers.Train(kind, b, cfg)
}

// F1 computes a matcher's F1 on labeled pairs.
func F1(m Model, pairs []LabeledPair) float64 {
	return matchers.F1(m, pairs)
}

// Baseline explainers (see internal/baselines).

// LIMEConfig tunes the LIME-based baselines (Mojito, LandMark, LIME-C).
type LIMEConfig = lime.Config

// SHAPConfig tunes the SHAP-based baselines (SHAP, SHAP-C).
type SHAPConfig = shap.Config

// DiCEConfig tunes the DiCE baseline.
type DiCEConfig = baselines.DiCEConfig

// NewMojito creates the Mojito saliency baseline (LIME with ER
// drop/copy operators).
func NewMojito(cfg LIMEConfig) SaliencyExplainer { return baselines.NewMojito(cfg) }

// NewLandMark creates the LandMark saliency baseline (double LIME with a
// landmark record).
func NewLandMark(cfg LIMEConfig) SaliencyExplainer { return baselines.NewLandMark(cfg) }

// NewSHAP creates the task-agnostic Kernel SHAP saliency baseline.
func NewSHAP(cfg SHAPConfig) SaliencyExplainer { return baselines.NewSHAP(cfg) }

// NewDiCE creates the DiCE counterfactual baseline over the two sources'
// value domains.
func NewDiCE(left, right *Table, cfg DiCEConfig) CounterfactualExplainer {
	return baselines.NewDiCE(left, right, cfg)
}

// NewLIMEC creates the LIME-C counterfactual baseline (k counterfactuals
// max; 0 = default).
func NewLIMEC(cfg LIMEConfig, k int) CounterfactualExplainer { return baselines.NewLIMEC(cfg, k) }

// NewSHAPC creates the SHAP-C counterfactual baseline.
func NewSHAPC(cfg SHAPConfig, k int) CounterfactualExplainer { return baselines.NewSHAPC(cfg, k) }

// Blocking (see internal/blocking).
type (
	// BlockingCandidate is one blocked pair with its retrieval score.
	BlockingCandidate = blocking.Candidate
	// BlockingConfig tunes the token blocker.
	BlockingConfig = blocking.Config
	// TokenBlocker generates candidate pairs by shared IDF-weighted
	// tokens, avoiding the quadratic cross product.
	TokenBlocker = blocking.TokenBlocker
	// BlockingQuality reports recall and reduction ratio of a candidate
	// set.
	BlockingQuality = blocking.Quality
)

// NewTokenBlocker indexes the right source for candidate generation.
func NewTokenBlocker(right *Table, cfg BlockingConfig) (*TokenBlocker, error) {
	return blocking.NewTokenBlocker(right, cfg)
}

// BlockedClusterPairs builds the k x k bipartite blocked candidate
// cluster around a pair: the top-k right candidates of its left record,
// the top-k left candidates of its right record, and every cross pair
// of the two sets. This is the serving-shaped explanation workload — an
// ER system resolving a candidate group explains all of its pairs — and
// its pairs share pivot records, so a shared scoring service
// (NewScoringService) amortizes their triangle scans across
// explanations where per-explanation caches cannot.
func BlockedClusterPairs(left, right *Table, seed Pair, k int) ([]Pair, error) {
	rightBlocker, err := blocking.NewTokenBlocker(right, blocking.Config{MaxPerRecord: k})
	if err != nil {
		return nil, err
	}
	leftBlocker, err := blocking.NewTokenBlocker(left, blocking.Config{MaxPerRecord: k})
	if err != nil {
		return nil, err
	}
	// CandidatesFor pairs the query on the left; the indexed table's
	// records sit on the right of each candidate pair.
	var lefts, rights []*Record
	for _, c := range leftBlocker.CandidatesFor(seed.Right) {
		lefts = append(lefts, c.Pair.Right)
	}
	for _, c := range rightBlocker.CandidatesFor(seed.Left) {
		rights = append(rights, c.Pair.Right)
	}
	if len(lefts) == 0 || len(rights) == 0 {
		return nil, fmt.Errorf("certa: blocked cluster around %s is empty", seed.Key())
	}
	pairs := make([]Pair, 0, len(lefts)*len(rights))
	for _, l := range lefts {
		for _, r := range rights {
			pairs = append(pairs, Pair{Left: l, Right: r})
		}
	}
	return pairs, nil
}

// EvaluateBlocking scores a candidate set against ground truth.
func EvaluateBlocking(cands []BlockingCandidate, leftN, rightN, totalMatches int, isMatch func(l, r string) bool) BlockingQuality {
	return blocking.Evaluate(cands, leftN, rightN, totalMatches, isMatch)
}

// Evaluation metrics (see internal/metrics).

// Faithfulness is the AUC of the threshold/F1 masking curve (lower =
// more faithful saliency).
func Faithfulness(m Model, pairs []LabeledPair, sals []*Saliency) (float64, error) {
	return metrics.Faithfulness(m, pairs, sals)
}

// ConfidenceIndication is the MAE of a logistic model predicting the
// classifier score from saliency vectors (lower is better).
func ConfidenceIndication(sals []*Saliency) (float64, error) {
	return metrics.ConfidenceIndication(sals)
}

// Proximity, Sparsity, Diversity and Validity evaluate counterfactual
// explanation sets (higher is better for the first three).
func Proximity(cfs []Counterfactual) float64 { return metrics.Proximity(cfs) }

// Sparsity is the mean fraction of unchanged attributes.
func Sparsity(cfs []Counterfactual) float64 { return metrics.Sparsity(cfs) }

// Diversity is the mean pairwise distance among a pair's counterfactuals.
func Diversity(cfs []Counterfactual) float64 { return metrics.Diversity(cfs) }

// Validity is the fraction of counterfactuals that actually flip.
func Validity(cfs []Counterfactual) float64 { return metrics.Validity(cfs) }

// SaliencyTopKAgreement is the Jaccard overlap of two saliencies' top-k
// attribute sets — the rank-agreement proxy the anytime experiments use
// to measure how close a budget-truncated explanation is to the
// unlimited run's.
func SaliencyTopKAgreement(a, b *Saliency, k int) float64 { return metrics.TopKAgreement(a, b, k) }
