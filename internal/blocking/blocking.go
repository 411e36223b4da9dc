// Package blocking implements candidate-pair generation for entity
// resolution: comparing every record of U against every record of V is
// quadratic, so production ER systems first *block* — index records by
// cheap keys and only compare pairs that share a key. The DeepMatcher
// benchmarks the paper evaluates on were themselves produced by
// blocking; this package provides the equivalent step for users running
// the full pipeline (block → match → explain) on their own tables.
//
// The blocker is a token-based inverted index with IDF weighting and
// per-record candidate caps (the standard baseline). It is
// deterministic.
package blocking

import (
	"fmt"
	"sort"

	"certa/internal/neighborhood"
	"certa/internal/record"
	"certa/internal/strutil"
)

// Candidate is one blocked pair with its blocking score (higher = more
// likely to be worth comparing).
type Candidate struct {
	Pair  record.Pair
	Score float64
}

// Config tunes the token blocker.
type Config struct {
	// MaxPerRecord caps the candidates kept per left record (default 10).
	MaxPerRecord int
	// MinSharedTokens is the minimum number of shared tokens for a pair
	// to become a candidate (default 1).
	MinSharedTokens int
	// MaxTokenFrequency drops tokens that appear in more than this
	// fraction of right records (stop-token pruning, default 0.2).
	MaxTokenFrequency float64
}

func (c Config) withDefaults() Config {
	if c.MaxPerRecord <= 0 {
		c.MaxPerRecord = 10
	}
	if c.MinSharedTokens <= 0 {
		c.MinSharedTokens = 1
	}
	if c.MaxTokenFrequency <= 0 {
		c.MaxTokenFrequency = 0.2
	}
	return c
}

// TokenBlocker retrieves, for each left record, the right records
// sharing the most (IDF-weighted) tokens. It is a thin consumer of the
// shared candidate retrieval index (internal/neighborhood): the
// inverted index and IDF weights live there — one tokenization for
// blocking and triangle support search — and the blocker adds only its
// own policy on top (stop-token pruning, minimum shared tokens, a
// per-record candidate cap).
type TokenBlocker struct {
	cfg   Config
	idx   *neighborhood.Index
	maxDF int // postings longer than this are stop tokens
}

// NewTokenBlocker builds the blocker over a fresh index of the right
// table. Callers that already hold a shared index (a server backend, a
// harness cell) should use NewTokenBlockerFromIndex instead.
func NewTokenBlocker(right *record.Table, cfg Config) (*TokenBlocker, error) {
	if right == nil || right.Len() == 0 {
		return nil, fmt.Errorf("blocking: right table is empty")
	}
	return NewTokenBlockerFromIndex(neighborhood.NewIndex(right), cfg)
}

// NewTokenBlockerFromIndex builds the blocker as a view over an
// existing retrieval index — no tokenization or posting construction of
// its own.
func NewTokenBlockerFromIndex(idx *neighborhood.Index, cfg Config) (*TokenBlocker, error) {
	if idx == nil || idx.Table().Len() == 0 {
		return nil, fmt.Errorf("blocking: right table is empty")
	}
	cfg = cfg.withDefaults()
	maxDF := int(cfg.MaxTokenFrequency * float64(idx.Table().Len()))
	if maxDF < 2 {
		maxDF = 2 // never prune on tiny tables
	}
	return &TokenBlocker{cfg: cfg, idx: idx, maxDF: maxDF}, nil
}

// CandidatesFor retrieves the top candidates for one left record. The
// query's tokens are visited in sorted order, so the floating-point
// weight sums — and with them candidate order — are deterministic.
func (b *TokenBlocker) CandidatesFor(l *record.Record) []Candidate {
	type hit struct {
		shared int
		weight float64
	}
	hits := make(map[int32]*hit)
	for _, tok := range strutil.DistinctTokens(l.Text()) {
		posting := b.idx.Postings(tok)
		if len(posting) == 0 || len(posting) > b.maxDF {
			// Unknown token, or a stop token: appears in too many records
			// to discriminate.
			continue
		}
		w := b.idx.IDF(tok)
		for _, ri := range posting {
			h := hits[ri]
			if h == nil {
				h = &hit{}
				hits[ri] = h
			}
			h.shared++
			h.weight += w
		}
	}
	right := b.idx.Table()
	var out []Candidate
	for ri, h := range hits {
		if h.shared < b.cfg.MinSharedTokens {
			continue
		}
		out = append(out, Candidate{
			Pair:  record.Pair{Left: l, Right: right.Records[ri]},
			Score: h.weight,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Pair.Right.ID < out[j].Pair.Right.ID
	})
	if len(out) > b.cfg.MaxPerRecord {
		out = out[:b.cfg.MaxPerRecord]
	}
	return out
}

// Block generates candidates for every left record.
func (b *TokenBlocker) Block(left *record.Table) []Candidate {
	var out []Candidate
	for _, l := range left.Records {
		out = append(out, b.CandidatesFor(l)...)
	}
	return out
}

// Quality evaluates a candidate set against ground truth: recall (the
// fraction of true matches covered) and the reduction ratio (the
// fraction of the full cross product avoided).
type Quality struct {
	Recall         float64
	ReductionRatio float64
	Candidates     int
}

// Evaluate computes blocking quality. isMatch answers ground truth for
// a (leftID, rightID) pair.
func Evaluate(cands []Candidate, leftN, rightN, totalMatches int, isMatch func(l, r string) bool) Quality {
	covered := 0
	seen := make(map[string]bool, len(cands))
	for _, c := range cands {
		key := c.Pair.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		if isMatch(c.Pair.Left.ID, c.Pair.Right.ID) {
			covered++
		}
	}
	q := Quality{Candidates: len(seen)}
	if totalMatches > 0 {
		q.Recall = float64(covered) / float64(totalMatches)
	}
	cross := float64(leftN) * float64(rightN)
	if cross > 0 {
		q.ReductionRatio = 1 - float64(len(seen))/cross
	}
	return q
}
