// Package neighborhood is the retrieval layer for triangle support
// search: an immutable per-table candidate index built once — per
// Explainer, per eval-harness cell, per server backend — so that no
// explanation re-tokenizes or re-ranks a whole source table on the
// request path.
//
// CERTA's open-triangle construction scans a source table for support
// records in two deterministic orders: a seeded shuffle (natural
// supports) and an overlap ranking (the guided augmented search: records
// ordered by token-Jaccard overlap with the triangle's fixed record,
// with the seeded shuffle as tie-break). Before this layer, the guided ranking
// tokenized every record of the table and full-sorted it per
// explanation — O(|table|·|text|) tokenization plus O(|table| log
// |table|) sorting before a single model call.
//
// The layer exposes both orders behind one CandidateSource interface
// with two implementations:
//
//   - Index precomputes the per-record texts, interned token sets and an
//     IDF-weighted inverted index at build time. Ranking a query then
//     costs only the postings the query's tokens touch, and candidates
//     are streamed through a lazy heap — O(|table|) heapify plus
//     O(log |table|) per candidate actually consumed — instead of a
//     full sort the scan may abandon after a handful of pops.
//   - Scan recomputes everything per call: the historical path, kept as
//     the equivalence tests' baseline (injected through
//     core.Options.Retrieval).
//
// Both implementations produce byte-identical candidate streams (the
// heap's comparator is exactly the stable sort's total order, and the
// Jaccard arithmetic is shared integer counting), so a single
// equivalence test gates the swap and every consumer — triangle search,
// blocking, benchmarks — can switch freely between them.
//
// The same inverted index doubles as the substrate of
// blocking.TokenBlocker (NewTokenBlockerFromIndex), deduplicating what
// used to be a private tokenization + IDF implementation.
package neighborhood

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"certa/internal/record"
	"certa/internal/strutil"
)

// CandidateSource streams one table's records in the deterministic
// orders the triangle support search consumes. Implementations must be
// safe for concurrent use; the streams they return are not (each scan
// pulls its own).
type CandidateSource interface {
	// Table returns the table the source draws candidates from.
	Table() *record.Table
	// Shuffled streams every record in seeded-shuffle order
	// (math/rand.Shuffle over the record ordinals).
	Shuffled(seed int64) *Stream
	// Ranked streams every record ordered by token-Jaccard overlap
	// between the record's text view and query — ascending when
	// ascending is true, descending otherwise — with the seeded shuffle
	// as tie-break.
	Ranked(seed int64, query string, ascending bool) *Stream
}

// Stream is a pull iterator over candidate records. Candidates are
// materialized lazily, so abandoning a stream early never pays for the
// order of the records it did not consume.
type Stream struct {
	next func() (*record.Record, bool)
}

// Next returns the next candidate, or false when the stream is
// exhausted.
func (s *Stream) Next() (*record.Record, bool) { return s.next() }

// Stats reports the build-time footprint of a prebuilt index.
type Stats struct {
	// Records is the number of indexed records.
	Records int `json:"records"`
	// DistinctTokens is the vocabulary size of the inverted index.
	DistinctTokens int `json:"distinct_tokens"`
	// BuildMS is the wall-clock index construction time in milliseconds.
	BuildMS float64 `json:"build_ms"`
}

// add folds another index's stats in (for reporting a two-table pair as
// one figure).
func (s Stats) add(o Stats) Stats {
	return Stats{
		Records:        s.Records + o.Records,
		DistinctTokens: s.DistinctTokens + o.DistinctTokens,
		BuildMS:        s.BuildMS + o.BuildMS,
	}
}

// Index is the immutable per-table candidate index: interned token
// sets (the inverted postings), per-record set sizes, and IDF weights
// over the records' distinct tokens. Build once, share everywhere —
// all methods are read-only after construction. The build tokenizes
// each record once and keeps only the interned postings: request
// handling reads only setSize/vocab/postings/idf.
type Index struct {
	table    *record.Table
	setSize  []int32 // per record ordinal: |TokenSet(text)|
	vocab    map[string]int32
	postings [][]int32 // per token id: record ordinals, ascending
	idf      []float64 // per token id: log(1 + N/df)
	stats    Stats
}

// NewIndex builds the index over a table.
func NewIndex(t *record.Table) *Index {
	//lint:allow nodrift index build time feeds the BuildMS stat (certa_index_build_seconds in /v1/metrics); retrieval results never depend on it
	start := time.Now()
	n := t.Len()
	ix := &Index{
		table:   t,
		setSize: make([]int32, n),
		vocab:   make(map[string]int32),
	}
	for i, r := range t.Records {
		set := r.TokenSet()
		toks := make([]string, 0, len(set))
		for tok := range set {
			toks = append(toks, tok)
		}
		sort.Strings(toks) // deterministic token-id interning order
		ix.setSize[i] = int32(len(toks))
		for _, tok := range toks {
			id, ok := ix.vocab[tok]
			if !ok {
				id = int32(len(ix.postings))
				ix.vocab[tok] = id
				ix.postings = append(ix.postings, nil)
			}
			ix.postings[id] = append(ix.postings[id], int32(i))
		}
	}
	ix.idf = make([]float64, len(ix.postings))
	nf := float64(n)
	for id, p := range ix.postings {
		ix.idf[id] = math.Log(1 + nf/float64(len(p)))
	}
	ix.stats = Stats{
		Records:        n,
		DistinctTokens: len(ix.postings),
		//lint:allow nodrift BuildMS is build-time telemetry; retrieval order is fixed by the interned vocabulary
		BuildMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	return ix
}

// Table implements CandidateSource.
func (ix *Index) Table() *record.Table { return ix.table }

// Stats reports the index's build statistics.
func (ix *Index) Stats() Stats { return ix.stats }

// Postings returns the ordinals (ascending) of the records containing
// token, or nil for an unknown token. The slice is shared — read-only.
func (ix *Index) Postings(tok string) []int32 {
	id, ok := ix.vocab[tok]
	if !ok {
		return nil
	}
	return ix.postings[id]
}

// IDF returns log(1 + N/df) for a token, or 0 for an unknown one.
func (ix *Index) IDF(tok string) float64 {
	id, ok := ix.vocab[tok]
	if !ok {
		return 0
	}
	return ix.idf[id]
}

// Shuffled implements CandidateSource.
func (ix *Index) Shuffled(seed int64) *Stream {
	return orderStream(ix.table, shuffleOrder(ix.table.Len(), seed))
}

// Ranked implements CandidateSource: overlaps are computed from the
// inverted index (only records sharing a token with the query do any
// intersection work) and the stream pops a lazy heap whose comparator
// is exactly the scan path's stable-sort order.
func (ix *Index) Ranked(seed int64, query string, ascending bool) *Stream {
	n := ix.table.Len()
	order := shuffleOrder(n, seed)
	// pos inverts the shuffle: the tie-break rank of each ordinal.
	pos := make([]int32, n)
	for i, ord := range order {
		pos[ord] = int32(i)
	}
	qtoks := strutil.DistinctTokens(query)
	inter := make([]int32, n)
	for _, tok := range qtoks {
		if id, ok := ix.vocab[tok]; ok {
			for _, ord := range ix.postings[id] {
				inter[ord]++
			}
		}
	}
	qlen := int32(len(qtoks))
	entries := make([]rankedEntry, n)
	for ord := range entries {
		entries[ord] = rankedEntry{
			overlap: jaccardFromCounts(inter[ord], ix.setSize[ord], qlen),
			pos:     pos[ord],
			ord:     int32(ord),
		}
	}
	h := &rankedHeap{entries: entries, ascending: ascending}
	h.init()
	return &Stream{next: func() (*record.Record, bool) {
		ord, ok := h.pop()
		if !ok {
			return nil, false
		}
		return ix.table.Records[ord], true
	}}
}

// jaccardFromCounts is Jaccard from set sizes and an intersection
// count. Both sets empty means "no token evidence either way" and is
// treated as full overlap, matching strutil.SetJaccard (and the
// historical tokenJaccard of the triangle search).
func jaccardFromCounts(inter, a, b int32) float64 {
	if a == 0 && b == 0 {
		return 1
	}
	return float64(inter) / float64(a+b-inter)
}

// Scan is the unindexed CandidateSource: it re-tokenizes and fully
// sorts the table per Ranked call. It is the historical behaviour of
// the triangle search, kept as the byte-identity baseline the index is
// tested against.
type Scan struct {
	table *record.Table
}

// NewScan wraps a table in the unindexed source.
func NewScan(t *record.Table) *Scan { return &Scan{table: t} }

// Table implements CandidateSource.
func (s *Scan) Table() *record.Table { return s.table }

// Shuffled implements CandidateSource.
func (s *Scan) Shuffled(seed int64) *Stream {
	return orderStream(s.table, shuffleOrder(s.table.Len(), seed))
}

// Ranked implements CandidateSource the pre-index way: compute every
// record's overlap with the query, then stable-sort the shuffled
// ordinals by it.
func (s *Scan) Ranked(seed int64, query string, ascending bool) *Stream {
	idx := shuffleOrder(s.table.Len(), seed)
	qset := strutil.TokenSet(query)
	overlap := make([]float64, s.table.Len())
	for i, w := range s.table.Records {
		overlap[i] = strutil.SetJaccard(w.TokenSet(), qset)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if ascending {
			return overlap[idx[a]] < overlap[idx[b]]
		}
		return overlap[idx[a]] > overlap[idx[b]]
	})
	return orderStream(s.table, idx)
}

// Sources bundles the candidate sources of a benchmark's two tables —
// the unit core.Options.Retrieval injects and servers share across
// requests.
type Sources struct {
	Left, Right CandidateSource
}

// NewSources builds prebuilt indexes over both tables.
func NewSources(left, right *record.Table) *Sources {
	return &Sources{Left: NewIndex(left), Right: NewIndex(right)}
}

// NewScanSources wraps both tables in unindexed scan sources.
func NewScanSources(left, right *record.Table) *Sources {
	return &Sources{Left: NewScan(left), Right: NewScan(right)}
}

// Side returns the source for one side.
func (s *Sources) Side(side record.Side) CandidateSource {
	if side == record.Right {
		return s.Right
	}
	return s.Left
}

// Stats reports the combined build statistics of the two sides, or
// false when either side is not a prebuilt Index (scan sources have no
// build-time footprint to report).
func (s *Sources) Stats() (Stats, bool) {
	li, ok := s.Left.(*Index)
	if !ok {
		return Stats{}, false
	}
	ri, ok := s.Right.(*Index)
	if !ok {
		return Stats{}, false
	}
	return li.Stats().add(ri.Stats()), true
}

// shuffleOrder is the triangle search's seeded shuffle of the record
// ordinals: math/rand with a fixed source, so the order is a pure
// function of (n, seed) and identical across implementations.
func shuffleOrder(n int, seed int64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}

// orderStream streams table records in a fixed ordinal order.
func orderStream(t *record.Table, order []int) *Stream {
	i := 0
	return &Stream{next: func() (*record.Record, bool) {
		if i >= len(order) {
			return nil, false
		}
		r := t.Records[order[i]]
		i++
		return r, true
	}}
}

// rankedEntry is one heap element of the lazy ranked stream.
type rankedEntry struct {
	overlap float64
	pos     int32 // shuffle position: the stable tie-break
	ord     int32 // record ordinal
}

// rankedHeap is a binary min-heap under the ranked order: overlap
// (ascending or descending), then shuffle position. Popping it yields
// exactly the sequence sort.SliceStable produces on the shuffled
// ordinals compared by overlap alone — (overlap, shuffle position) is
// the total order a stable sort of a shuffled sequence realizes — so
// heap and sort paths are interchangeable byte for byte.
type rankedHeap struct {
	entries   []rankedEntry
	ascending bool
}

func (h *rankedHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.overlap != b.overlap {
		if h.ascending {
			return a.overlap < b.overlap
		}
		return a.overlap > b.overlap
	}
	return a.pos < b.pos
}

// init establishes the heap invariant in O(n).
func (h *rankedHeap) init() {
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// pop removes and returns the ordinal of the best remaining entry.
func (h *rankedHeap) pop() (int32, bool) {
	n := len(h.entries)
	if n == 0 {
		return 0, false
	}
	top := h.entries[0].ord
	h.entries[0] = h.entries[n-1]
	h.entries = h.entries[:n-1]
	h.siftDown(0)
	return top, true
}

func (h *rankedHeap) siftDown(i int) {
	n := len(h.entries)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			return
		}
		h.entries[i], h.entries[best] = h.entries[best], h.entries[i]
		i = best
	}
}
