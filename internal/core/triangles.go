package core

import (
	"context"
	"strconv"

	"certa/internal/neighborhood"
	"certa/internal/record"
	"certa/internal/scorecache"
	"certa/internal/strutil"
	"certa/internal/telemetry"
)

// triangles holds the support records selected for one explanation.
type triangles struct {
	left, right       []*record.Record
	augLeft, augRight int
}

// findTriangles implements get_triangles of Algorithm 1: τ/2 left
// supports (w ∈ U with M(⟨w,v⟩)=¬y) and τ/2 right supports (q ∈ V with
// M(⟨u,q⟩)=¬y), topped up by data augmentation on shortage (§3.3).
//
// It returns the supports plus two cost counters: calls is the number of
// candidate score lookups the chunked batch scan issued, and seedCalls
// is what the sequential seed scan — which stopped at the last accepted
// support — would have scored.
//
// Every chunk flush is an anytime checkpoint: a tripped budget abandons
// the remaining stream (and the phases after it), keeping the supports
// found so far.
func (e *Explainer) findTriangles(ctx context.Context, bud *runBudget, prog *progress, sc *scorecache.Scorer, p record.Pair, y bool) (triangles, int, int, error) {
	perSide := e.opts.Triangles / 2
	if perSide < 1 {
		perSide = 1
	}
	var tri triangles
	calls, seedCalls := 0, 0

	if e.opts.LeftTrianglesOnly {
		perSide = e.opts.Triangles
	}
	var err error
	if !e.opts.ForceAugmentation {
		tri.left, err = e.naturalSupports(ctx, bud, prog, sc, p, y, record.Left, perSide, &calls, &seedCalls)
		if err != nil {
			return tri, calls, seedCalls, err
		}
		if !e.opts.LeftTrianglesOnly {
			tri.right, err = e.naturalSupports(ctx, bud, prog, sc, p, y, record.Right, perSide, &calls, &seedCalls)
			if err != nil {
				return tri, calls, seedCalls, err
			}
		}
	}
	if !e.opts.DisableAugmentation || e.opts.ForceAugmentation {
		if len(tri.left) < perSide {
			aug, err := e.augmentedSupports(ctx, bud, prog, sc, p, y, record.Left, perSide-len(tri.left), &calls, &seedCalls)
			if err != nil {
				return tri, calls, seedCalls, err
			}
			tri.augLeft = len(aug)
			tri.left = append(tri.left, aug...)
		}
		if !e.opts.LeftTrianglesOnly && len(tri.right) < perSide {
			aug, err := e.augmentedSupports(ctx, bud, prog, sc, p, y, record.Right, perSide-len(tri.right), &calls, &seedCalls)
			if err != nil {
				return tri, calls, seedCalls, err
			}
			tri.augRight = len(aug)
			tri.right = append(tri.right, aug...)
		}
	}
	return tri, calls, seedCalls, nil
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
type supportScan struct {
	ctx  context.Context
	bud  *runBudget
	sc   *scorecache.Scorer
	p    record.Pair
	side record.Side
	y    bool
	want int

	chunk   int
	pending []*record.Record
	recOrds []int // per pending candidate: ordinal of its source record
	out     []*record.Record
	scored  int  // candidates actually scored (chunk overscan included)
	seed    int  // candidates the sequential seed scan would have scored
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

func newSupportScan(ctx context.Context, bud *runBudget, sc *scorecache.Scorer, p record.Pair, side record.Side, y bool, want int) *supportScan {
	chunk := want
	if chunk < 1 {
		chunk = 1
	}
	if chunk > maxSearchChunk {
		chunk = maxSearchChunk
	}
	return &supportScan{ctx: ctx, bud: bud, sc: sc, p: p, side: side, y: y, want: want, chunk: chunk}
}

// beginRecord marks the start of a new source record's candidates; the
// patience streak advances per record, not per candidate variant.
func (s *supportScan) beginRecord() { s.curRec++ }

// add buffers one candidate, flushing a full chunk through the scorer.
func (s *supportScan) add(cand *record.Record) {
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
		s.seed = s.scored
		s.truncated = true
		s.done = true
		s.pending = s.pending[:0]
		s.recOrds = s.recOrds[:0]
		return
	}
	pairs := make([]record.Pair, len(s.pending))
	for i, w := range s.pending {
		pairs[i] = s.p.WithRecord(s.side, w)
	}
	scores, err := s.sc.ScoreBatchContext(s.ctx, pairs)
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
					s.seed = s.scored + i
					s.done = true
					break
				}
			}
			s.lastRec = ord
			s.recEligible = false
		}
		if (score > 0.5) != s.y {
			s.recEligible = true
			s.out = append(s.out, s.pending[i])
			if len(s.out) >= s.want {
				s.seed = s.scored + i + 1
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
	if !s.done {
		s.seed = s.scored
	}
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
func (e *Explainer) naturalSupports(ctx context.Context, bud *runBudget, prog *progress, sc *scorecache.Scorer, p record.Pair, y bool, side record.Side, want int, calls, seedCalls *int) ([]*record.Record, error) {
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
		scan.add(w)
	}
	out := scan.finish()
	if scan.err != nil {
		return nil, scan.err
	}
	sp.AddItems(scan.scored)
	*calls += scan.scored
	*seedCalls += scan.seed
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
func (e *Explainer) augmentedSupports(ctx context.Context, bud *runBudget, prog *progress, sc *scorecache.Scorer, p record.Pair, y bool, side record.Side, want int, calls, seedCalls *int) ([]*record.Record, error) {
	if want <= 0 {
		return nil, nil
	}
	self := p.Record(side)
	fixed := p.Record(side.Opposite())
	src := e.sources.Side(side)
	seed := e.opts.Seed*197 + 7 + int64(side) + int64(hashString(fixed.Text()))

	// Attempt budget so pathological models cannot make explanation cost
	// unbounded (Options.AugmentBudget variants per missing support).
	budget := want * e.opts.AugmentBudget

	sp, ctx := telemetry.StartSpan(ctx, "retrieval/augmented")
	defer sp.End()
	scan := newSupportScan(ctx, bud, sc, p, side, y, want)
	var stream *neighborhood.Stream
	if e.opts.SeedSearch {
		stream = src.Shuffled(seed)
	} else {
		// Guided search: a support must predict opposite to y when paired
		// with the triangle's fixed record. When the opposite prediction
		// is Match, only records resembling the fixed record can get
		// there by dropping noise tokens — visit those first. When it is
		// Non-Match, dissimilar records flip fastest. The seeded shuffle
		// remains the tie-break, so Seed still diversifies selection.
		// RankedContext additionally records the eager ranking work
		// (postings intersection + heap setup) as its own span.
		stream = neighborhood.RankedContext(ctx, src, seed, fixed.Text(), y /* ascending overlap when seeking Non-Match */)
		// Abandon streams that yield nothing: after this many consecutive
		// candidate records' worth of ineligible variants, no support is
		// coming from the rest of the (relevance-ranked) stream either.
		// Pruned mode gives up sooner; see prunePatience.
		scan.patience = augmentPatience
		if e.opts.LatticePrune.Enabled() {
			scan.patience = prunePatience
		}
	}
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
			toks := strutil.Tokenize(w.Value(a))
			n := len(toks)
			if n < 2 {
				continue
			}
			for k := 1; k < n && !scan.done && generated < budget; k++ {
				for _, variant := range []string{
					strutil.DropFirstTokens(w.Value(a), k),
					strutil.DropLastTokens(w.Value(a), k),
				} {
					if scan.done || generated >= budget {
						break
					}
					cand := w.WithValue(a, variant)
					cand.ID = w.ID + "#aug" + strconv.Itoa(augID)
					augID++
					generated++
					scan.add(cand)
				}
			}
		}
	}
	out := scan.finish()
	if scan.err != nil {
		return nil, scan.err
	}
	sp.AddItems(scan.scored)
	*calls += scan.scored
	*seedCalls += scan.seed
	scan.notePhase(prog)
	return out, nil
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
