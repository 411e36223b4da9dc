package matchers

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"certa/internal/dataset"
	"certa/internal/embedding"
	"certa/internal/memo"
	"certa/internal/record"
	"certa/internal/strutil"
)

// featurizer converts a record pair into the fixed-width input vector of
// one model architecture. appendFeatures writes exactly dim() values
// onto dst and returns the extended slice, so batch callers featurize
// straight into one flat plane for the batched forward pass without
// per-row allocations. Featurizers are idempotent: internal memo state
// (the DeepMatcher attribute-block memo) only caches pure functions of
// the inputs.
type featurizer interface {
	appendFeatures(dst []float64, p record.Pair, text textFunc) []float64
	dim() int
	embedder() *embedding.Embedder
}

// textFunc embeds a text, through the matcher's embedding memo
// (Model.text) or directly. Returned vectors are read-only.
type textFunc func(s string) []float64

// newFeaturizer builds the featurizer and network architecture for a
// model kind, fitting the shared embedder on the benchmark corpus.
func newFeaturizer(kind Kind, b *dataset.Benchmark, cfg Config) (featurizer, arch, error) {
	emb := embedding.New(cfg.EmbeddingDim)
	var corpus []string
	for _, r := range b.Left.Records {
		corpus = append(corpus, r.Text())
	}
	for _, r := range b.Right.Records {
		corpus = append(corpus, r.Text())
	}
	emb.Fit(corpus)

	attrs := alignedAttrs(b.Left.Schema, b.Right.Schema)
	switch kind {
	case DeepER:
		return &deepERFeat{emb: emb}, archFor(kind), nil
	case DeepMatcher, SVM:
		return &deepMatcherFeat{emb: emb, attrs: attrs}, archFor(kind), nil
	case Ditto:
		return &dittoFeat{emb: emb, attrs: attrs}, archFor(kind), nil
	}
	return nil, arch{}, fmt.Errorf("matchers: unknown kind %q", kind)
}

// alignedAttrs pairs attributes by name; attributes present on only one
// side are dropped (the twelve benchmarks share schemas on both sides).
func alignedAttrs(l, r *record.Schema) []string {
	var out []string
	for _, a := range l.Attrs {
		if r.AttrIndex(a) >= 0 {
			out = append(out, a)
		}
	}
	return out
}

// --- DeepER: record-level distributed representations -------------------

// deepERFeat embeds each record as one IDF-weighted vector and feeds the
// element-wise absolute difference and Hadamard product to the network —
// the classic "distributed representations of tuples" recipe. Attribute
// boundaries are invisible to the model.
type deepERFeat struct {
	emb *embedding.Embedder
}

func (f *deepERFeat) dim() int { return 2*f.emb.Dim + 2 }

func (f *deepERFeat) embedder() *embedding.Embedder { return f.emb }

func (f *deepERFeat) appendFeatures(dst []float64, p record.Pair, text textFunc) []float64 {
	lt, rt := p.Left.Text(), p.Right.Text()
	le := text(lt)
	re := text(rt)
	// Extend dst by the two blocks (appending the inputs reuses the batch
	// plane's capacity without a zero-filled temp), then let the
	// element-wise SIMD kernel overwrite them: diff block first, Hadamard
	// block second, bit-identical to the scalar loops it replaced.
	d := len(le)
	base := len(dst)
	dst = append(dst, le...)
	dst = append(dst, re...)
	embedding.AbsDiffMul(dst[base:base+d], dst[base+d:base+2*d], le, re)
	jac := 0.0
	if lt != "" && rt != "" {
		jac = strutil.Jaccard(lt, rt)
	}
	return append(dst, embedding.Cosine(le, re), jac)
}

// --- DeepMatcher: attribute-level similarity summaries --------------------

// deepMatcherFeat computes a block of similarity features per aligned
// attribute (the "attribute summarization" of the Hybrid model): the
// model sees exactly which attribute agrees or disagrees. Each distinct
// value pair's block — embedding cosine plus four string similarities,
// including a bit-vector edit distance over the first 64 bytes — is
// computed once per matcher lifetime (blocks, attached by
// Model.initCaches): perturbed pairs recombine a small set of attribute
// values, so lattice workloads hit the memo almost every time.
type deepMatcherFeat struct {
	emb    *embedding.Embedder
	attrs  []string
	blocks *memo.Memo[[2]string, [dmBlock]float64]
}

const dmBlock = 7

func (f *deepMatcherFeat) dim() int { return dmBlock * len(f.attrs) }

func (f *deepMatcherFeat) embedder() *embedding.Embedder { return f.emb }

func (f *deepMatcherFeat) appendFeatures(dst []float64, p record.Pair, text textFunc) []float64 {
	block := func(k [2]string) (out [dmBlock]float64) {
		appendAttrBlock(out[:0], text, k[0], k[1])
		return out
	}
	for _, a := range f.attrs {
		blk := f.blocks.Get([2]string{p.Left.Value(a), p.Right.Value(a)}, block)
		dst = append(dst, blk[:]...)
	}
	return dst
}

// appendAttrBlock appends the per-attribute feature block shared by
// DeepMatcher and Ditto. A missing value on either side zeroes every
// similarity feature: the absence of evidence is not evidence of
// similarity (real DL matchers learn exactly this from their embedding
// of empty strings), and the missing-value indicators carry what signal
// remains.
//
// Each value is tokenized and sorted once; Jaccard, containment and
// number overlap are computed from the shared sorted slices (pooled, so
// steady state allocates nothing beyond the normalized strings). All
// three reduce to the same integer counts as the string-based measures,
// so the block is bit-identical to appendAttrBlockRef — the property
// test TestAttrBlockMatchesReference gates this.
func appendAttrBlock(dst []float64, text textFunc, lv, rv string) []float64 {
	lm, rm := strutil.IsMissing(lv), strutil.IsMissing(rv)
	if lm || rm {
		bothMissing, oneMissing := 0.0, 1.0
		if lm && rm {
			bothMissing, oneMissing = 1.0, 0.0
		}
		return append(dst, 0, 0, 0, 0, 0, bothMissing, oneMissing)
	}
	sc := tokScratchPool.Get().(*tokScratch)
	la := strutil.AppendTokens(sc.a[:0], lv)
	ra := strutil.AppendTokens(sc.b[:0], rv)
	strutil.SortTokens(la)
	strutil.SortTokens(ra)
	dst = append(dst,
		embedding.Cosine(text(lv), text(rv)),
		strutil.JaccardSortedTokens(la, ra),
		strutil.LevenshteinSimilarity(truncateForLev(lv), truncateForLev(rv)),
		strutil.ContainmentSortedTokens(la, ra),
		strutil.NumberOverlapSortedTokens(la, ra),
		0,
		0,
	)
	sc.a, sc.b = la, ra
	tokScratchPool.Put(sc)
	return dst
}

// tokScratch pools the per-call token slices of appendAttrBlock.
type tokScratch struct{ a, b []string }

var tokScratchPool = sync.Pool{New: func() any { return &tokScratch{} }}

// truncateForLev caps value length so edit distance stays cheap on long
// descriptions: 64 ASCII bytes is one machine word for Myers' kernel
// in strutil.LevenshteinDistance.
func truncateForLev(s string) string {
	const maxLen = 64
	if len(s) <= maxLen {
		return s
	}
	return s[:maxLen]
}

// --- Ditto: serialized sequences with injected knowledge -----------------

// dittoFeat serializes both records into Ditto's "[COL] a [VAL] v" token
// sequence and derives sequence-level evidence: IDF-weighted token
// overlap (a stand-in for cross-attention), trigram similarity (subword
// robustness), injected domain knowledge (number overlap), and
// alignment-free cross-attribute matching that tolerates the dirty
// benchmarks' displaced values.
type dittoFeat struct {
	emb   *embedding.Embedder
	attrs []string
}

func (f *dittoFeat) dim() int { return 11 }

func (f *dittoFeat) embedder() *embedding.Embedder { return f.emb }

// serialize renders a record as Ditto's flat token sequence.
func serialize(r *record.Record) string {
	var b strings.Builder
	for i, a := range r.Schema.Attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("col " + strutil.Normalize(a) + " val ")
		v := r.Values[i]
		if strutil.IsMissing(v) {
			b.WriteString("")
		} else {
			b.WriteString(strutil.Normalize(v))
		}
	}
	return b.String()
}

func (f *dittoFeat) appendFeatures(dst []float64, p record.Pair, text textFunc) []float64 {
	lt, rt := p.Left.Text(), p.Right.Text()
	if lt == "" || rt == "" {
		// An all-missing record carries no evidence; only the emptiness
		// indicators fire.
		for i := 0; i < f.dim()-2; i++ {
			dst = append(dst, 0)
		}
		return append(dst, boolF(lt == ""), boolF(rt == ""))
	}
	ls, rs := serialize(p.Left), serialize(p.Right)

	// IDF-weighted token overlap: Σ idf(shared) / Σ idf(all left)
	// in both directions — a cheap analogue of attention mass landing on
	// aligned tokens. Tokens are summed in sorted order so float
	// accumulation is deterministic.
	lSet, rSet := strutil.TokenSet(lt), strutil.TokenSet(rt)
	var sharedW, lW, rW float64
	for _, tok := range sortedTokens(lSet) {
		w := f.emb.IDF(tok)
		lW += w
		if _, ok := rSet[tok]; ok {
			sharedW += w
		}
	}
	for _, tok := range sortedTokens(rSet) {
		rW += f.emb.IDF(tok)
	}
	overlapL, overlapR := 0.0, 0.0
	if lW > 0 {
		overlapL = sharedW / lW
	}
	if rW > 0 {
		overlapR = sharedW / rW
	}

	// Alignment-free cross-attribute similarity: each left attribute
	// matched against its best right attribute (handles displaced
	// values in the dirty benchmarks).
	var crossSum float64
	var crossCount int
	for _, la := range f.attrs {
		lv := p.Left.Value(la)
		if strutil.IsMissing(lv) {
			continue
		}
		best := 0.0
		for _, ra := range f.attrs {
			rv := p.Right.Value(ra)
			if strutil.IsMissing(rv) {
				continue
			}
			if s := strutil.ContainmentSimilarity(lv, rv); s > best {
				best = s
			}
		}
		crossSum += best
		crossCount++
	}
	cross := 0.0
	if crossCount > 0 {
		cross = crossSum / float64(crossCount)
	}

	lenL, lenR := float64(len(strutil.Tokenize(lt))), float64(len(strutil.Tokenize(rt)))
	lenRatio := 0.0
	if lenL > 0 && lenR > 0 {
		lenRatio = minF(lenL, lenR) / maxF(lenL, lenR)
	}

	// Injected domain knowledge: overlap of numeric tokens (model
	// numbers, prices). Numbers on both sides are compared; numbers on
	// neither side are neutral; numbers on exactly one side are weak
	// negative evidence.
	num := 0.5
	ln, rn := strutil.NumericTokens(lt), strutil.NumericTokens(rt)
	switch {
	case len(ln) > 0 && len(rn) > 0:
		num = strutil.NumberOverlap(lt, rt)
	case len(ln) != len(rn):
		num = 0.25
	}

	return append(dst,
		overlapL,
		overlapR,
		strutil.Jaccard(ls, rs),
		strutil.TrigramJaccard(truncateForLev(lt), truncateForLev(rt)),
		strutil.ContainmentSimilarity(lt, rt),
		num,
		embedding.Cosine(text(lt), text(rt)),
		cross,
		lenRatio,
		boolF(lenL == 0),
		boolF(lenR == 0),
	)
}

func sortedTokens(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
