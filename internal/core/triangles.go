package core

import (
	"context"
	"strconv"
	"strings"

	"certa/internal/neighborhood"
	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/telemetry"
)

// triangles holds the support records selected for one explanation.
type triangles struct {
	left, right       []*record.Record
	augLeft, augRight int
	// searchCalls counts the candidate score lookups the chunked batch
	// scans issued (Diagnostics.TriangleSearchCalls).
	searchCalls int
}

// findTriangles implements get_triangles of Algorithm 1: τ/2 left
// supports (w ∈ U with M(⟨w,v⟩)=¬y) and τ/2 right supports (q ∈ V with
// M(⟨u,q⟩)=¬y), topped up by data augmentation on shortage (§3.3).
//
// The scans run natural left, natural right, then augmented left,
// augmented right; CallBudget truncation points depend on that order.
// Every chunk flush is an anytime checkpoint: a tripped budget abandons
// the remaining stream (and the phases after it), keeping the supports
// found so far.
func (e *Explainer) findTriangles(ctx context.Context, bud *runBudget, prog *progress, sc *scorecache.Scorer, p record.Pair, y bool) (triangles, error) {
	perSide := e.opts.Triangles / 2
	if perSide < 1 {
		perSide = 1
	}
	var tri triangles
	var err error
	if !e.opts.ForceAugmentation {
		tri.left, err = e.naturalSupports(ctx, bud, prog, sc, p, y, record.Left, perSide, &tri.searchCalls)
		if err != nil {
			return tri, err
		}
		tri.right, err = e.naturalSupports(ctx, bud, prog, sc, p, y, record.Right, perSide, &tri.searchCalls)
		if err != nil {
			return tri, err
		}
	}
	if !e.opts.DisableAugmentation || e.opts.ForceAugmentation {
		if len(tri.left) < perSide {
			aug, err := e.augmentedSupports(ctx, bud, prog, sc, p, y, record.Left, perSide-len(tri.left), &tri.searchCalls)
			if err != nil {
				return tri, err
			}
			tri.augLeft = len(aug)
			tri.left = append(tri.left, aug...)
		}
		if len(tri.right) < perSide {
			aug, err := e.augmentedSupports(ctx, bud, prog, sc, p, y, record.Right, perSide-len(tri.right), &tri.searchCalls)
			if err != nil {
				return tri, err
			}
			tri.augRight = len(aug)
			tri.right = append(tri.right, aug...)
		}
	}
	return tri, nil
}

// maxSearchChunk caps the geometric chunk growth of the candidate scan.
const maxSearchChunk = 256

// augmentPatience is the guided augmented scan's abandonment threshold:
// consecutive candidate records whose token-drop variants all fail to
// flip before the stream is declared hopeless.
const augmentPatience = 20

// prunePatience replaces augmentPatience when Options.LatticePrune is
// enabled. A barren candidate record costs a full token-drop fan-out
// (tens of scored variants) before patience ticks, so the exact mode's
// 20-record tail is the single largest cost on sides where supports are
// scarce. Cutting it to 6 is the LEMON-style budget cut of the pruned
// mode: selection stays a pure function of (pair, sources, Seed) — so
// results remain byte-identical at any Parallelism — and the saliency
// cost of the shorter tail is gated by the measured top-2 agreement
// against the exact run (TestPrunedModeKeepsTopAttribution in the certa
// package), not assumed.
const prunePatience = 6

// supportScan selects the first `want` eligible candidates of a
// deterministic stream, scoring the stream in geometrically growing
// chunks through the cached batch scorer. The selection is identical to
// a one-candidate-at-a-time scan (eligibility is per-candidate and the
// accepted set is a prefix property); only the scoring is batched, which
// may look at most one chunk past the last accepted candidate.
//
// The scan is key-first: a buffered candidate is a descriptor, keyed
// from its source record's values by a SupportKeyer, and its record is
// built only when the model must score it or it is accepted. A flush
// writes the chunk's keys into one builder and cuts each from its
// string, reusing the key slice of earlier flushes.
type supportScan struct {
	ctx   context.Context
	bud   *runBudget
	sc    *scorecache.Scorer
	keyer *scorecache.SupportKeyer
	p     record.Pair
	side  record.Side
	y     bool
	want  int

	chunk   int
	pending []candidate
	recOrds []int    // per pending candidate: ordinal of its source record
	keys    []string // per pending candidate: its store key, during a flush
	out     []*record.Record
	scored  int  // candidates actually scored (chunk overscan included)
	done    bool // want reached or stream abandoned; later candidates are ignored
	// truncated records that a budget checkpoint (not the stream's own
	// logic) abandoned the scan; err records a context cancellation.
	truncated bool
	err       error

	// patience abandons the scan after this many consecutive source
	// records (marked by beginRecord) that contributed no eligible
	// candidate (0 = never). Guards searches over streams that contain
	// no eligible candidates at all. The streak counts candidate
	// records, not individual variants: a record that fans out into
	// dozens of token-drop variants still spends only one unit of
	// patience.
	patience int
	streak   int

	curRec      int  // ordinal of the record currently generating candidates
	lastRec     int  // ordinal of the last record seen during scoring
	recEligible bool // the record being scored has yielded an eligible candidate
}

// candidate describes one support candidate without building it: the
// source record itself (attr < 0) or a token-drop variant of it, whose
// value at index attr is the string of the keyer's id val, and the
// augmentation ordinal that names it.
type candidate struct {
	src  *record.Record
	attr int
	val  uint32
	aug  int
}

// build materializes the candidate record: the source record itself, or
// a copy carrying the variant value and the ID "<src>#aug<ordinal>".
func (s *supportScan) build(c candidate) *record.Record {
	if c.attr < 0 {
		return c.src
	}
	r := c.src.Clone()
	r.Values[c.attr] = s.keyer.Value(c.val)
	r.ID = c.src.ID + "#aug" + strconv.Itoa(c.aug)
	return r
}

func newSupportScan(ctx context.Context, bud *runBudget, sc *scorecache.Scorer, p record.Pair, side record.Side, y bool, want int) *supportScan {
	chunk := want
	if chunk < 1 {
		chunk = 1
	}
	if chunk > maxSearchChunk {
		chunk = maxSearchChunk
	}
	return &supportScan{ctx: ctx, bud: bud, sc: sc, keyer: sc.SupportKeyer(p, side), p: p, side: side, y: y, want: want, chunk: chunk}
}

// beginRecord marks the start of a new source record's candidates; the
// patience streak advances per record, not per candidate variant.
func (s *supportScan) beginRecord() { s.curRec++ }

// add buffers one candidate, flushing a full chunk through the scorer.
func (s *supportScan) add(cand candidate) {
	if s.done {
		return
	}
	s.pending = append(s.pending, cand)
	s.recOrds = append(s.recOrds, s.curRec)
	if len(s.pending) >= s.chunk {
		s.flush()
	}
}

func (s *supportScan) flush() {
	if s.done || len(s.pending) == 0 {
		return
	}
	// Anytime checkpoint: a tripped budget abandons the stream before the
	// chunk is scored, keeping whatever the scan already accepted.
	if s.bud.exhausted() {
		s.truncated = true
		s.done = true
		s.pending = s.pending[:0]
		s.recOrds = s.recOrds[:0]
		return
	}
	n := 0
	for _, c := range s.pending {
		n += s.keyer.Len(c.src)
	}
	var b strings.Builder
	b.Grow(n)
	for _, c := range s.pending {
		s.keyer.WriteKey(&b, c.src, c.attr, c.val)
	}
	// The keys are substrings of one string: the view borrows them, and
	// the store copies the ones it claims.
	all := b.String()
	s.keys = s.keys[:0]
	for _, c := range s.pending {
		k := s.keyer.Len(c.src)
		s.keys = append(s.keys, all[:k])
		all = all[k:]
	}
	scores, err := s.sc.ScoreBatchKeyedContext(s.ctx, s.keys, func(i int) record.Pair {
		return s.p.WithRecord(s.side, s.build(s.pending[i]))
	})
	if err != nil {
		s.err = err
		s.done = true
		return
	}
	for i, score := range scores {
		// A record boundary settles the previous record's patience
		// verdict: eligible somewhere → streak resets; barren → one more
		// unit spent. A sequential scan abandons right after the barren
		// record that exhausts patience, before this candidate — the
		// chunked scan has merely overscored the remainder of the chunk.
		if ord := s.recOrds[i]; ord != s.lastRec {
			if s.lastRec != 0 {
				if s.recEligible {
					s.streak = 0
				} else if s.streak++; s.patience > 0 && s.streak >= s.patience {
					s.done = true
					break
				}
			}
			s.lastRec = ord
			s.recEligible = false
		}
		if (score > 0.5) != s.y {
			s.recEligible = true
			s.out = append(s.out, s.build(s.pending[i]))
			if len(s.out) >= s.want {
				s.done = true
				break
			}
		}
	}
	s.scored += len(s.pending)
	s.pending = s.pending[:0]
	s.recOrds = s.recOrds[:0]
	if !s.done && s.chunk < maxSearchChunk {
		s.chunk *= 2
		if s.chunk > maxSearchChunk {
			s.chunk = maxSearchChunk
		}
	}
}

// finish flushes the tail of the stream and reports the selection.
func (s *supportScan) finish() []*record.Record {
	s.flush()
	return s.out
}

// naturalSupports scans one source for records that predict opposite to y
// when paired with the pivot. Candidates are streamed in a seeded shuffle
// so different explanations sample different supports, then the first
// `want` eligible records (in stream order) are returned.
//
// The shuffle is seeded by the triangle's fixed record — the scan's
// actual input, since every candidate is paired against it — rather
// than the full pair key. Explanations whose pivots differ stay
// decorrelated, while explanations that share the fixed record (the
// serving-shaped workload: many candidate pairs per query record) scan
// the same candidates in the same order, so a shared scoring service
// answers the repeat scans from its store.
//
// The shuffle is deliberately kept in pruned mode too: on sides where
// eligible candidates are scarce, any ordering scans the full stream
// anyway, and on dense sides a relevance reordering changes which
// supports are selected — a set divergence the pruned mode's agreement
// gate would then have to absorb for no measured call savings.
func (e *Explainer) naturalSupports(ctx context.Context, bud *runBudget, prog *progress, sc *scorecache.Scorer, p record.Pair, y bool, side record.Side, want int, calls *int) ([]*record.Record, error) {
	self := p.Record(side)
	fixed := p.Record(side.Opposite())
	src := e.sources.Side(side)
	seed := e.opts.Seed*131 + int64(side) + int64(hashString(fixed.Text()))

	sp, ctx := telemetry.StartSpan(ctx, "retrieval/natural")
	defer sp.End()
	scan := newSupportScan(ctx, bud, sc, p, side, y, want)
	stream := src.Shuffled(seed)
	for !scan.done {
		w, ok := stream.Next()
		if !ok {
			break
		}
		if w.ID == self.ID {
			continue
		}
		scan.beginRecord()
		scan.add(candidate{src: w, attr: -1})
	}
	out := scan.finish()
	if scan.err != nil {
		return nil, scan.err
	}
	sp.AddItems(scan.scored)
	*calls += scan.scored
	scan.notePhase(prog)
	return out, nil
}

// augmentedSupports implements the data augmentation of §3.3: derive new
// candidate records from source records by dropping the first-k or
// last-k tokens of attribute values (k = 1..n-1), keep those that
// predict opposite to y. The candidate stream is seeded by the
// triangle's fixed record (like naturalSupports) so augmented supports
// stay decorrelated across pivots while explanations sharing the fixed
// record generate cache-aligned variant streams.
func (e *Explainer) augmentedSupports(ctx context.Context, bud *runBudget, prog *progress, sc *scorecache.Scorer, p record.Pair, y bool, side record.Side, want int, calls *int) ([]*record.Record, error) {
	if want <= 0 {
		return nil, nil
	}
	self := p.Record(side)

	// Attempt budget so pathological models cannot make explanation cost
	// unbounded (Options.AugmentBudget variants per missing support).
	budget := want * e.opts.AugmentBudget

	sp, ctx := telemetry.StartSpan(ctx, "retrieval/augmented")
	defer sp.End()
	scan := newSupportScan(ctx, bud, sc, p, side, y, want)
	// Abandon streams that yield nothing: after this many consecutive
	// candidate records' worth of ineligible variants, no support is
	// coming from the rest of the (relevance-ranked) stream either.
	// Pruned mode gives up sooner; see prunePatience.
	scan.patience = augmentPatience
	if e.opts.LatticePrune.Enabled() {
		scan.patience = prunePatience
	}
	stream := e.augmentedStream(ctx, p, side, y)
	generated := 0
	augID := 0
	for !scan.done && generated < budget {
		w, ok := stream.Next()
		if !ok {
			break
		}
		if w.ID == self.ID {
			continue
		}
		scan.beginRecord()
		for _, a := range w.Schema.Attrs {
			if scan.done || generated >= budget {
				break
			}
			// The first-k and last-k token drops of the value, in
			// strutil.TokenDrops order, derived once per Service.
			ai := w.Schema.AttrIndex(a)
			for _, id := range scan.keyer.Variants(w, ai) {
				if scan.done || generated >= budget {
					break
				}
				scan.add(candidate{src: w, attr: ai, val: id, aug: augID})
				augID++
				generated++
			}
		}
	}
	out := scan.finish()
	if scan.err != nil {
		return nil, scan.err
	}
	sp.AddItems(scan.scored)
	*calls += scan.scored
	scan.notePhase(prog)
	return out, nil
}

// augmentedStream is the guided candidate stream of the augmented scan
// on side. A support must predict opposite to y when paired with the
// triangle's fixed record. When the opposite prediction is Match, only
// records resembling the fixed record can get there by dropping noise
// tokens — visit those first. When it is Non-Match, dissimilar records
// flip fastest. The seeded shuffle remains the tie-break, so Seed still
// diversifies selection. RankedContext additionally records the eager
// ranking work (postings intersection + heap setup) as its own span.
func (e *Explainer) augmentedStream(ctx context.Context, p record.Pair, side record.Side, y bool) *neighborhood.Stream {
	fixed := p.Record(side.Opposite())
	seed := e.opts.Seed*197 + 7 + int64(side) + int64(hashString(fixed.Text()))
	return neighborhood.RankedContext(ctx, e.sources.Side(side), seed, fixed.Text(), y /* ascending overlap when seeking Non-Match */)
}

// notePhase registers the scan as one completeness phase: complete when
// it ran to its natural end (want reached, stream exhausted, or patience
// spent), fractional when a budget checkpoint abandoned it.
func (s *supportScan) notePhase(prog *progress) {
	if !s.truncated {
		prog.phase(1)
		return
	}
	prog.phase(float64(len(s.out)) / float64(s.want))
}

// hashString is FNV-1a, decorrelating the support shuffles across pairs.
func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
