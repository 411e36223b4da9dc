package matchers

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"certa/internal/dataset"
	"certa/internal/embedding"
	"certa/internal/record"
	"certa/internal/strutil"
)

// featurizer converts a record pair into the fixed-width input vector of
// one model architecture. appendFeatures writes exactly dim() values
// onto dst and returns the extended slice, so batch callers featurize
// straight into one flat plane for the batched forward pass without
// per-row allocations. Texts are embedded through the model's memos
// (c), which only cache pure functions of the inputs, so featurization
// is idempotent.
type featurizer interface {
	appendFeatures(dst []float64, p record.Pair, c *caches) []float64
	dim() int
	embedder() *embedding.Embedder
}

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

func (f *deepERFeat) appendFeatures(dst []float64, p record.Pair, c *caches) []float64 {
	lt, rt := p.Left.Text(), p.Right.Text()
	le := c.text(lt)
	re := c.text(rt)
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
// value pair's similarities — embedding cosine plus four string
// similarities, including a bit-vector edit distance over the first 64
// bytes — are computed once per matcher lifetime (caches.blocks):
// perturbed pairs recombine a small set of attribute values, so lattice
// workloads hit the memo almost every time. The memo is keyed by the
// two values' text ids and holds the five similarities, so neither key
// nor value holds a pointer; a pair with a missing side is a constant
// block and is not memoized.
type deepMatcherFeat struct {
	emb   *embedding.Embedder
	attrs []string
}

const (
	// dmBlock is the width of one attribute's block: dmSims
	// similarities, then the both-missing and one-missing indicators.
	dmBlock = 7
	dmSims  = 5
)

func (f *deepMatcherFeat) dim() int { return dmBlock * len(f.attrs) }

func (f *deepMatcherFeat) embedder() *embedding.Embedder { return f.emb }

func (f *deepMatcherFeat) appendFeatures(dst []float64, p record.Pair, c *caches) []float64 {
	return f.appendBatch(dst, []record.Pair{p}, c)
}

// appendBatch appends the features of every pair, row after row. It
// resolves each schema's attribute indexes once rather than one
// Record.Value map lookup per value. Perturbed batches change few
// values from one row to the next, so it compares each value pair with
// the previous row's: an unchanged pair copies the previous row's block
// without a lookup, and an unchanged side reuses that side's text
// entry. Each reused value still counts as a text memo lookup and hit,
// so the memo's counters do not depend on where batches are cut.
func (f *deepMatcherFeat) appendBatch(dst []float64, pairs []record.Pair, c *caches) []float64 {
	sc := dmScratchPool.Get().(*dmScratch)
	if cap(sc.prev) < len(f.attrs) {
		sc.prev = make([]dmPrev, len(f.attrs))
	}
	prev := sc.prev[:len(f.attrs)]
	width := f.dim()
	reused := 0
	for i, p := range pairs {
		li := sc.left.resolve(p.Left.Schema, f.attrs)
		ri := sc.right.resolve(p.Right.Schema, f.attrs)
		for j := range prev {
			lv, rv := valueAt(p.Left, li[j]), valueAt(p.Right, ri[j])
			s := &prev[j]
			if i > 0 && lv == s.lv && rv == s.rv {
				at := len(dst) - width
				dst = append(dst, dst[at:at+dmBlock]...)
				reused += 2
				continue
			}
			if i == 0 || lv != s.lv {
				s.lv, s.l = lv, c.entry(lv)
			} else {
				reused++
			}
			if i == 0 || rv != s.rv {
				s.rv, s.r = rv, c.entry(rv)
			} else {
				reused++
			}
			dst = c.appendBlock(dst, s.l, s.r, lv, rv)
		}
	}
	c.texts.AddHits(reused)
	// Drop the batch's strings and vectors before pooling the scratch.
	clear(prev)
	sc.left, sc.right = dmSchema{idx: sc.left.idx[:0]}, dmSchema{idx: sc.right.idx[:0]}
	dmScratchPool.Put(sc)
	return dst
}

// dmScratch is appendBatch's per-call state, pooled so a batch
// allocates nothing in steady state.
type dmScratch struct {
	prev        []dmPrev // per aligned attribute: the previous row's values
	left, right dmSchema
}

type dmPrev struct {
	lv, rv string
	l, r   textEntry
}

// dmSchema caches the aligned attributes' indexes in the last schema
// seen on one side of a batch.
type dmSchema struct {
	schema *record.Schema
	idx    []int
}

func (d *dmSchema) resolve(s *record.Schema, attrs []string) []int {
	if s != d.schema || len(d.idx) != len(attrs) {
		d.schema, d.idx = s, d.idx[:0]
		for _, a := range attrs {
			d.idx = append(d.idx, s.AttrIndex(a))
		}
	}
	return d.idx
}

var dmScratchPool = sync.Pool{New: func() any { return new(dmScratch) }}

// valueAt is Record.Value with the attribute index already resolved.
func valueAt(r *record.Record, i int) string {
	if i < 0 {
		return strutil.NaN
	}
	return r.Values[i]
}

// appendBlock appends one attribute's block given both values' text
// entries. A missing value on either side zeroes every similarity
// feature: the absence of evidence is not evidence of similarity (real
// DL matchers learn exactly this from their embedding of empty
// strings), and the missing-value indicators carry what signal
// remains. Otherwise the block is the value pair's memoized
// similarities and two zero indicators.
func (c *caches) appendBlock(dst []float64, l, r textEntry, lv, rv string) []float64 {
	if l.missing || r.missing {
		return appendMissingBlock(dst, l.missing, r.missing)
	}
	sims := c.blocks.Get([2]uint32{l.id, r.id}, func([2]uint32) [dmSims]float64 {
		return similarities(l.emb, r.emb, lv, rv)
	})
	return append(append(dst, sims[:]...), 0, 0)
}

func appendMissingBlock(dst []float64, lm, rm bool) []float64 {
	bothMissing, oneMissing := 0.0, 1.0
	if lm && rm {
		bothMissing, oneMissing = 1.0, 0.0
	}
	return append(dst, 0, 0, 0, 0, 0, bothMissing, oneMissing)
}

// similarities computes the five similarity features of two present
// values from their embeddings le and re. Each value is tokenized and
// sorted once; Jaccard, containment and number overlap are computed
// from the shared sorted slices (pooled, so steady state allocates
// nothing beyond the normalized strings). All three reduce to the same
// integer counts as the string-based measures, so a block is
// bit-identical to appendAttrBlockRef's — the property test
// TestAttrBlockMatchesReference gates this.
func similarities(le, re []float64, lv, rv string) [dmSims]float64 {
	sc := tokScratchPool.Get().(*tokScratch)
	la := strutil.AppendTokens(sc.a[:0], lv)
	ra := strutil.AppendTokens(sc.b[:0], rv)
	strutil.SortTokens(la)
	strutil.SortTokens(ra)
	out := [dmSims]float64{
		embedding.Cosine(le, re),
		strutil.JaccardSortedTokens(la, ra),
		strutil.LevenshteinSimilarity(truncateForLev(lv), truncateForLev(rv)),
		strutil.ContainmentSortedTokens(la, ra),
		strutil.NumberOverlapSortedTokens(la, ra),
	}
	sc.a, sc.b = la, ra
	tokScratchPool.Put(sc)
	return out
}

// tokScratch pools the per-call token slices of similarities.
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

func (f *dittoFeat) appendFeatures(dst []float64, p record.Pair, c *caches) []float64 {
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
		embedding.Cosine(c.text(lt), c.text(rt)),
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
