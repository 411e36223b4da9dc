// Package matchers implements the three deep-learning ER systems whose
// predictions the paper explains — DeepER, DeepMatcher and Ditto — plus a
// classic linear (SVM-style) baseline. The PyTorch originals are
// substituted by Go feed-forward networks over architecture-specific
// featurizations that preserve each system's character:
//
//   - DeepER sees the pair at *record level* (whole-record distributed
//     representations; attribute boundaries blurred);
//   - DeepMatcher sees *attribute-level* similarity summaries;
//   - Ditto sees a *serialized token sequence* with injected column
//     markers and domain knowledge (number normalization), plus
//     train-time data augmentation — and is the strongest of the three.
//
// See DESIGN.md §1 for the substitution rationale. All trained models are
// pure and safe for concurrent Score calls.
package matchers

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"certa/internal/dataset"
	"certa/internal/embedding"
	"certa/internal/nn"
	"certa/internal/record"
	"certa/internal/telemetry"
)

// Matcher is a black-box ER classifier: Score returns the matching
// probability of a pair in [0,1]; a score above 0.5 means Match.
type Matcher interface {
	Name() string
	Score(p record.Pair) float64
}

// IsMatch applies the paper's decision threshold (score > 0.5).
func IsMatch(m Matcher, p record.Pair) bool { return m.Score(p) > 0.5 }

// Kind selects one of the implemented ER systems.
type Kind string

// The implemented ER systems.
const (
	DeepER      Kind = "DeepER"
	DeepMatcher Kind = "DeepMatcher"
	Ditto       Kind = "Ditto"
	SVM         Kind = "SVM"
)

// Kinds lists the three DL systems evaluated in the paper, in table
// order.
func Kinds() []Kind { return []Kind{DeepER, DeepMatcher, Ditto} }

// Model is a trained ER matcher.
type Model struct {
	kind  Kind
	feat  featurizer
	net   *nn.Network
	store *embedding.Store // persistent text-embedding cache; nil only mid-construction
}

// Name implements Matcher.
func (m *Model) Name() string { return string(m.kind) }

// Kind returns which system this model implements.
func (m *Model) Kind() Kind { return m.kind }

// initCaches attaches the matcher-lifetime caches: the persistent
// embedding store (every distinct attribute/record text embeds once per
// model lifetime instead of once per batch) and, for DeepMatcher-style
// featurizers, the attribute-block memo. Both cache pure functions, so
// scores are bit-identical with or without them. cacheSize bounds the
// embedding store's entry count (0 = unbounded).
func (m *Model) initCaches(cacheSize int) {
	m.store = embedding.NewStore(m.feat.embedder(), embedding.StoreOptions{Capacity: cacheSize})
	if dm, ok := m.feat.(*deepMatcherFeat); ok {
		dm.memo = newBlockMemo()
	}
}

// text returns the embedding function scoring should use: the persistent
// store when attached, the bare embedder otherwise.
func (m *Model) text() textFunc {
	if m.store != nil {
		return m.store.Text
	}
	return m.feat.embedder().Text
}

// EmbeddingStats reports the persistent embedding store's activity
// (zero-valued when the store is absent).
func (m *Model) EmbeddingStats() embedding.StoreStats {
	if m.store == nil {
		return embedding.StoreStats{}
	}
	return m.store.Stats()
}

// featBufPool recycles the flat featurization planes of Score and
// ScoreBatch so steady-state scoring allocates nothing but the result.
var featBufPool = sync.Pool{New: func() any { return new([]float64) }}

// Score implements Matcher. It is concurrency-safe and, in steady state,
// allocation-free: features are written into a pooled buffer and the
// forward pass runs through the nn package's pooled batch engine.
func (m *Model) Score(p record.Pair) float64 {
	bp := featBufPool.Get().(*[]float64)
	buf := m.feat.appendFeatures((*bp)[:0], p, m.text())
	s := m.net.Predict(buf)
	*bp = buf[:0]
	featBufPool.Put(bp)
	return s
}

// ScoreBatch scores many pairs in one call (the explain.BatchModel
// capability): the batch is featurized straight into one pooled flat
// plane — each distinct text resolved through the persistent embedding
// store — and a single blocked forward pass produces the scores.
// Index-aligned with pairs and bit-identical to per-pair Score calls.
func (m *Model) ScoreBatch(pairs []record.Pair) []float64 {
	out, _ := m.ScoreBatchContext(context.Background(), pairs) // background ctx: never errs
	return out
}

// ScoreBatchContext implements explain.ContextModel natively: the
// batch observes ctx once up front (the same granularity the generic
// adapter would give it) and the two kernel stages — featurization and
// the blocked forward pass — are recorded as telemetry spans when a
// trace rides ctx. Span timing is an observability side channel; the
// scores stay bit-identical to ScoreBatch and per-pair Score calls.
func (m *Model) ScoreBatchContext(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return make([]float64, 0), nil
	}
	bp := featBufPool.Get().(*[]float64)
	flat := (*bp)[:0]
	text := m.text()
	sp := telemetry.StartLeaf(ctx, "featurize")
	for _, p := range pairs {
		flat = m.feat.appendFeatures(flat, p, text)
	}
	sp.AddItems(len(pairs))
	sp.End()
	sp = telemetry.StartLeaf(ctx, "forward")
	out := m.net.PredictBatchFlat(flat, len(pairs))
	sp.AddItems(len(pairs))
	sp.End()
	*bp = flat[:0]
	featBufPool.Put(bp)
	return out, nil
}

// Config tunes training.
type Config struct {
	// Seed drives weight init, shuffling and augmentation.
	Seed int64
	// EmbeddingDim sets the hashed-embedding dimensionality (default 24).
	EmbeddingDim int
	// Epochs caps training passes (default per-kind).
	Epochs int
	// EmbeddingCacheSize bounds the trained model's persistent
	// text-embedding store (0 = unbounded). Embeddings are cheap to
	// recompute, so a bound only matters for very-high-cardinality
	// deployments.
	EmbeddingCacheSize int
}

func (c Config) withDefaults() Config {
	if c.EmbeddingDim == 0 {
		c.EmbeddingDim = 24
	}
	return c
}

// Train fits a matcher of the requested kind on the benchmark's train
// split, early-stopping on the validation split.
func Train(kind Kind, b *dataset.Benchmark, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	feat, arch, err := newFeaturizer(kind, b, cfg)
	if err != nil {
		return nil, err
	}

	// The model owns its caches from the start, so featurizing the
	// training data warms the embedding store with the corpus texts.
	m := &Model{kind: kind, feat: feat}
	m.initCaches(cfg.EmbeddingCacheSize)
	text := m.text()

	train := b.Train
	// Ditto's data augmentation: extra copies of training pairs with one
	// random attribute blanked, teaching robustness to missing values.
	if kind == Ditto {
		train = augmentPairs(train, cfg.Seed)
	}

	x := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, p := range train {
		x[i] = feat.appendFeatures(nil, p.Pair, text)
		y[i] = label(p.Match)
	}
	vx := make([][]float64, len(b.Valid))
	vy := make([]float64, len(b.Valid))
	for i, p := range b.Valid {
		vx[i] = feat.appendFeatures(nil, p.Pair, text)
		vy[i] = label(p.Match)
	}

	rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(hashKind(kind))))
	net := nn.NewMLP(feat.dim(), arch.hidden, arch.dropout, rng)
	tc := nn.TrainConfig{
		Epochs:       arch.epochs,
		BatchSize:    16,
		LearningRate: arch.lr,
		L2:           1e-4,
		Patience:     10,
		Seed:         cfg.Seed + 7,
	}
	if cfg.Epochs > 0 {
		tc.Epochs = cfg.Epochs
	}
	if _, err := net.Train(x, y, vx, vy, tc); err != nil {
		return nil, fmt.Errorf("matchers: training %s on %s: %w", kind, b.Spec.Code, err)
	}
	m.net = net
	return m, nil
}

// MustTrain is Train that panics on error, for tests and examples.
func MustTrain(kind Kind, b *dataset.Benchmark, cfg Config) *Model {
	m, err := Train(kind, b, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// TrainAll trains the three DL systems of the paper on one benchmark.
func TrainAll(b *dataset.Benchmark, cfg Config) (map[Kind]*Model, error) {
	out := make(map[Kind]*Model, 3)
	for _, k := range Kinds() {
		m, err := Train(k, b, cfg)
		if err != nil {
			return nil, err
		}
		out[k] = m
	}
	return out, nil
}

// arch bundles per-kind network hyperparameters.
type arch struct {
	hidden  []int
	dropout float64
	lr      float64
	epochs  int
}

func archFor(kind Kind) arch {
	switch kind {
	case DeepER:
		return arch{hidden: []int{32}, lr: 0.01, epochs: 60}
	case DeepMatcher:
		return arch{hidden: []int{36, 18}, lr: 0.01, epochs: 80}
	case Ditto:
		return arch{hidden: []int{48, 24}, dropout: 0.1, lr: 0.008, epochs: 100}
	case SVM:
		return arch{hidden: nil, lr: 0.05, epochs: 60} // linear model
	}
	panic(fmt.Sprintf("matchers: unknown kind %q", kind))
}

// augmentPairs appends one blank-an-attribute copy per training pair.
func augmentPairs(pairs []record.LabeledPair, seed int64) []record.LabeledPair {
	rng := rand.New(rand.NewSource(seed*17 + 3))
	out := append([]record.LabeledPair(nil), pairs...)
	for _, p := range pairs {
		refs := p.AttrRefs()
		ref := refs[rng.Intn(len(refs))]
		aug := p.Pair.WithValue(ref, "NaN")
		out = append(out, record.LabeledPair{Pair: aug, Match: p.Match})
	}
	return out
}

// label applies light label smoothing (ε=0.1). Hard 0/1 targets on
// separable synthetic data drive the logits to saturation, which makes
// every score ≈0 or ≈1; smoothing keeps the models calibrated the way
// real DL matchers on noisy benchmark data are, so that perturbing a
// single attribute can move a prediction across the decision boundary.
func label(match bool) float64 {
	if match {
		return 0.95
	}
	return 0.05
}

func hashKind(k Kind) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return h
}

// Accuracy computes classification accuracy of a matcher on labeled
// pairs.
func Accuracy(m Matcher, pairs []record.LabeledPair) float64 {
	if len(pairs) == 0 {
		return 0
	}
	ok := 0
	for _, p := range pairs {
		if IsMatch(m, p.Pair) == p.Match {
			ok++
		}
	}
	return float64(ok) / float64(len(pairs))
}

// F1 computes the F1 score of a matcher on labeled pairs (the model
// performance measure used by the Faithfulness metric).
func F1(m Matcher, pairs []record.LabeledPair) float64 {
	tp, fp, fn := 0, 0, 0
	for _, p := range pairs {
		pred := IsMatch(m, p.Pair)
		switch {
		case pred && p.Match:
			tp++
		case pred && !p.Match:
			fp++
		case !pred && p.Match:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	return 2 * prec * rec / (prec + rec)
}

// ScoreFunc adapts a plain function to the Matcher interface, letting
// users plug arbitrary classifiers into the explainers (see
// examples/custommodel).
type ScoreFunc struct {
	// ModelName is reported by Name().
	ModelName string
	// Fn computes the matching score.
	Fn func(p record.Pair) float64
}

// Name implements Matcher.
func (s ScoreFunc) Name() string { return s.ModelName }

// Score implements Matcher. Plain score functions ride the batched
// pipeline through explain.ScoreBatch's automatic adaptation.
func (s ScoreFunc) Score(p record.Pair) float64 { return s.Fn(p) }
