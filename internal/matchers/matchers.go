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
// All trained models are pure and safe for concurrent Score calls.
package matchers

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"certa/internal/dataset"
	"certa/internal/embedding"
	"certa/internal/explain"
	"certa/internal/memo"
	"certa/internal/nn"
	"certa/internal/record"
	"certa/internal/strutil"
	"certa/internal/telemetry"
)

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
	kind Kind
	feat featurizer
	net  *nn.Network
	c    *caches // matcher-lifetime memos, attached by initCaches
}

// Name implements Matcher.
func (m *Model) Name() string { return string(m.kind) }

// Kind returns which system this model implements.
func (m *Model) Kind() Kind { return m.kind }

// caches are a model's matcher-lifetime memos: text embeddings (every
// distinct attribute or record text embeds once per model lifetime
// instead of once per batch), token vectors (a text never seen before
// still reuses the vectors of the tokens it shares with earlier texts,
// as every token-drop variant does) and, for DeepMatcher-style
// featurizers, attribute blocks, each kept as its cosine and eight
// counts (dmCounts). The text memo also gives each distinct
// text an id, and the block memo is keyed by two such ids, so both are
// created together by initCaches: a block key never outlives the ids
// it was made from.
type caches struct {
	emb    *embedding.Embedder
	texts  *memo.Memo[string, textEntry]
	tokens *memo.Memo[string, []float64]
	blocks *memo.Memo[[2]uint32, dmCounts] // nil for kinds without blocks
	lastID atomic.Uint32
}

// textEntry is the text memo's value. The embedding and the missing
// flag are pure functions of the text; the id is not, but the memo
// keeps the first entry stored for a text (a Get that lost the race to
// store one returns the stored one), so a text has one id for the
// memo's life and two texts share an id exactly when they are equal
// strings.
type textEntry struct {
	id      uint32
	missing bool // strutil.IsMissing(text)
	emb     []float64
}

// initCaches attaches fresh memos. All three memoize pure functions
// of their keys (the ids only name texts), so scores are bit-identical
// with or without them. Train and UnmarshalBinary call it before any
// scoring.
func (m *Model) initCaches() {
	c := &caches{
		emb:    m.feat.embedder(),
		texts:  memo.New[string, textEntry](),
		tokens: memo.New[string, []float64](),
	}
	if _, ok := m.feat.(*deepMatcherFeat); ok {
		c.blocks = memo.New[[2]uint32, dmCounts]()
	}
	m.c = c
}

// entry resolves s through the text memo, embedding a text it has not
// seen from token vectors through the token memo.
func (c *caches) entry(s string) textEntry { return c.texts.Get(s, c.newEntry) }

// text returns the embedding of s. Returned vectors are read-only.
func (c *caches) text(s string) []float64 { return c.entry(s).emb }

func (c *caches) newEntry(s string) textEntry {
	id := c.lastID.Add(1)
	if id == 0 {
		panic("matchers: the text memo ran out of ids")
	}
	return textEntry{id: id, missing: strutil.IsMissing(s), emb: c.emb.TextWith(s, c.token)}
}

func (c *caches) token(tok string) []float64 {
	return c.tokens.Get(tok, c.emb.Token)
}

// EmbeddingStats reports the embedding memo's activity. Every text a
// featurizer resolves counts, DeepMatcher's block values included.
func (m *Model) EmbeddingStats() memo.Stats { return m.c.texts.Stats() }

// BlockStats reports the DeepMatcher attribute-block memo's activity;
// it is zero for kinds without blocks.
func (m *Model) BlockStats() memo.Stats {
	if m.c.blocks == nil {
		return memo.Stats{}
	}
	return m.c.blocks.Stats()
}

// featBufPool recycles the flat featurization planes of Score and
// ScoreBatch so steady-state scoring allocates nothing but the result.
var featBufPool = sync.Pool{New: func() any { return new([]float64) }}

// Score implements Matcher. It is concurrency-safe. Features are
// written into a pooled buffer and the forward pass runs through the nn
// package's pooled batch engine, so for DeepMatcher and SVM a Score of
// values the memos hold allocates nothing; DeepER and Ditto build each
// record's text on every call.
func (m *Model) Score(p record.Pair) float64 {
	bp := featBufPool.Get().(*[]float64)
	buf := m.feat.appendFeatures((*bp)[:0], p, m.c)
	s := m.net.Predict(buf)
	*bp = buf[:0]
	featBufPool.Put(bp)
	return s
}

// ScoreBatch scores many pairs in one call (the explain.BatchModel
// capability): the batch is featurized straight into one pooled flat
// plane — each distinct text resolved through the embedding memo, and
// a DeepMatcher batch in one pass that skips the lookups of values
// unchanged from the previous row — and a single blocked forward pass
// produces the scores.
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
	sp := telemetry.StartLeaf(ctx, "featurize")
	if dm, ok := m.feat.(*deepMatcherFeat); ok {
		flat = dm.appendBatch(flat, pairs, m.c)
	} else {
		for _, p := range pairs {
			flat = m.feat.appendFeatures(flat, p, m.c)
		}
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

	// The model owns its memos from the start, so featurizing the
	// training data warms them with the corpus texts.
	m := &Model{kind: kind, feat: feat}
	m.initCaches()

	train := b.Train
	// Ditto's data augmentation: extra copies of training pairs with one
	// random attribute blanked, teaching robustness to missing values.
	if kind == Ditto {
		train = augmentPairs(train, cfg.Seed)
	}

	x := make([][]float64, len(train))
	y := make([]float64, len(train))
	for i, p := range train {
		x[i] = feat.appendFeatures(nil, p.Pair, m.c)
		y[i] = label(p.Match)
	}
	vx := make([][]float64, len(b.Valid))
	vy := make([]float64, len(b.Valid))
	for i, p := range b.Valid {
		vx[i] = feat.appendFeatures(nil, p.Pair, m.c)
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

// F1 computes the F1 score of a model on labeled pairs (the model
// performance measure used by the Faithfulness metric).
func F1(m explain.Model, pairs []record.LabeledPair) float64 {
	tp, fp, fn := 0, 0, 0
	for _, p := range pairs {
		pred := explain.Predicted(m, p.Pair)
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
