package server

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"certa/internal/core"
	"certa/internal/explain"
	"certa/internal/record"
)

// A served explanation is mostly records: every counterfactual repeats
// the explained pair as its original and one side of it unchanged, so
// an Abt-Buy body of about 43 KB writes the same two records some 70
// times. encoding/json renders each of them again, and re-scans every
// counterfactual's MarshalJSON output once more to compact it. The
// renderer below writes an ExplainResponse in one pass instead, and
// copies a record's bytes where the same *record.Record recurs.
//
// It writes exactly what json.Marshal(ExplainResponse) writes: field
// order and omitempty as the struct tags say, null for a nil pointer,
// slice or map, map keys sorted by their text form, encoding/json's
// string escaping (HTML characters, U+2028, U+2029, and U+FFFD for
// invalid UTF-8) and float format. encoding/json stays the reference:
// FuzzRenderResponse and TestRenderCoversEveryWireField compare the
// two, and a body that json.Marshal rejects (a NaN or infinite float)
// is handed to json.Marshal for its error.

// renderer is one body's output buffer and scratch, pooled.
type renderer struct {
	buf []byte
	// recs are the records rendered into buf so far: buf[lo:hi] is the
	// JSON of rec.
	recs []renderedRecord
	// scores and suff sort the two maps' entries by key.
	scores []scoredRef
	suff   []sufficiency
	// nonFinite is set when a float that json.Marshal rejects was met.
	nonFinite bool
}

type renderedRecord struct {
	rec    *record.Record
	lo, hi int
}

type scoredRef struct {
	ref   record.AttrRef
	score float64
}

type sufficiency struct {
	key string
	chi float64
}

var renderers = sync.Pool{New: func() any { return new(renderer) }}

// maxPooledRender bounds the buffer a renderer keeps in the pool: one
// outsized body should not pin its buffer for the life of the process.
const maxPooledRender = 1 << 20

// renderResponse returns json.Marshal(*resp)'s bytes, or its error. The
// body is a fresh slice of exactly its length: coalesced joiners and
// the result memo share it after the pooled buffer has moved on.
func renderResponse(resp *ExplainResponse) ([]byte, error) {
	r := renderers.Get().(*renderer)
	ok := r.response(resp)
	var body []byte
	if ok {
		body = make([]byte, len(r.buf))
		copy(body, r.buf)
	}
	r.reset()
	if cap(r.buf) <= maxPooledRender {
		renderers.Put(r)
	}
	if !ok {
		return json.Marshal(resp)
	}
	return body, nil
}

// reset empties the renderer for the next body, dropping its
// references to records and keys.
func (r *renderer) reset() {
	r.buf = r.buf[:0]
	clear(r.recs)
	r.recs = r.recs[:0]
	clear(r.scores)
	r.scores = r.scores[:0]
	clear(r.suff)
	r.suff = r.suff[:0]
	r.nonFinite = false
}

// response renders resp into r.buf and reports whether json.Marshal
// would have accepted it.
func (r *renderer) response(resp *ExplainResponse) bool {
	r.buf = append(r.buf, `{"benchmark":`...)
	r.str(resp.Benchmark)
	r.buf = append(r.buf, `,"pair_key":`...)
	r.str(resp.PairKey)
	if resp.Result != nil {
		r.buf = append(r.buf, `,"result":`...)
		r.result(resp.Result)
	}
	if resp.Error != "" {
		r.buf = append(r.buf, `,"error":`...)
		r.str(resp.Error)
	}
	if resp.Trace != nil {
		// Only ?debug=trace bodies carry a trace; encoding/json renders it.
		tree, err := json.Marshal(resp.Trace)
		if err != nil {
			return false
		}
		r.buf = append(r.buf, `,"trace":`...)
		r.buf = append(r.buf, tree...)
	}
	r.buf = append(r.buf, '}')
	return !r.nonFinite
}

func (r *renderer) result(res *core.Result) {
	r.buf = append(r.buf, `{"saliency":`...)
	if s := res.Saliency; s == nil {
		r.buf = append(r.buf, "null"...)
	} else {
		r.saliency(s)
	}
	if len(res.Counterfactuals) > 0 {
		r.buf = append(r.buf, `,"counterfactuals":[`...)
		for i := range res.Counterfactuals {
			if i > 0 {
				r.buf = append(r.buf, ',')
			}
			r.counterfactual(&res.Counterfactuals[i])
		}
		r.buf = append(r.buf, ']')
	}
	r.buf = append(r.buf, `,"best_set":{"side":`...)
	r.str(res.BestSet.Side.String())
	if len(res.BestSet.Attrs) > 0 {
		r.buf = append(r.buf, `,"attrs":`...)
		r.strs(res.BestSet.Attrs)
	}
	r.buf = append(r.buf, `},"best_sufficiency":`...)
	r.float(res.BestSufficiency)
	if len(res.Sufficiency) > 0 {
		r.buf = append(r.buf, `,"sufficiency":{`...)
		for k, chi := range res.Sufficiency {
			r.suff = append(r.suff, sufficiency{k, chi})
		}
		slices.SortFunc(r.suff, func(a, b sufficiency) int { return strings.Compare(a.key, b.key) })
		for i, e := range r.suff {
			if i > 0 {
				r.buf = append(r.buf, ',')
			}
			r.str(e.key)
			r.buf = append(r.buf, ':')
			r.float(e.chi)
		}
		r.buf = append(r.buf, '}')
	}
	r.buf = append(r.buf, `,"diagnostics":`...)
	r.diagnostics(&res.Diag)
	r.buf = append(r.buf, '}')
}

func (r *renderer) saliency(s *explain.Saliency) {
	r.buf = append(r.buf, `{"pair":`...)
	r.pair(s.Pair)
	r.buf = append(r.buf, `,"prediction":`...)
	r.float(s.Prediction)
	r.buf = append(r.buf, `,"scores":`...)
	if s.Scores == nil {
		r.buf = append(r.buf, "null}"...)
		return
	}
	for ref, v := range s.Scores {
		r.scores = append(r.scores, scoredRef{ref, v})
	}
	// A key's text form is its side letter, '_' and the attribute, so
	// (letter, attribute) order is the text order encoding/json sorts by.
	slices.SortFunc(r.scores, func(a, b scoredRef) int {
		if c := strings.Compare(a.ref.Side.String(), b.ref.Side.String()); c != 0 {
			return c
		}
		return strings.Compare(a.ref.Attr, b.ref.Attr)
	})
	r.buf = append(r.buf, '{')
	for i, e := range r.scores {
		if i > 0 {
			r.buf = append(r.buf, ',')
		}
		r.attrRef(e.ref)
		r.buf = append(r.buf, ':')
		r.float(e.score)
	}
	r.buf = append(r.buf, "}}"...)
}

// counterfactual writes what Counterfactual.MarshalJSON writes: its
// fields, then the unexported original score.
func (r *renderer) counterfactual(c *explain.Counterfactual) {
	r.buf = append(r.buf, `{"original":`...)
	r.pair(c.Original)
	r.buf = append(r.buf, `,"pair":`...)
	r.pair(c.Pair)
	if len(c.Changed) > 0 {
		r.buf = append(r.buf, `,"changed":[`...)
		for i, ref := range c.Changed {
			if i > 0 {
				r.buf = append(r.buf, ',')
			}
			r.attrRef(ref)
		}
		r.buf = append(r.buf, ']')
	}
	r.buf = append(r.buf, `,"score":`...)
	r.float(c.Score)
	r.buf = append(r.buf, `,"probability":`...)
	r.float(c.Probability)
	r.buf = append(r.buf, `,"original_score":`...)
	r.float(c.OriginalScore())
	r.buf = append(r.buf, '}')
}

func (r *renderer) pair(p record.Pair) {
	r.buf = append(r.buf, `{"left":`...)
	r.record(p.Left)
	r.buf = append(r.buf, `,"right":`...)
	r.record(p.Right)
	r.buf = append(r.buf, '}')
}

// record writes rec, copying the bytes of an earlier rendering of the
// same record in this body.
func (r *renderer) record(rec *record.Record) {
	if rec == nil {
		r.buf = append(r.buf, "null"...)
		return
	}
	for _, seen := range r.recs {
		if seen.rec == rec {
			r.buf = append(r.buf, r.buf[seen.lo:seen.hi]...)
			return
		}
	}
	lo := len(r.buf)
	r.buf = append(r.buf, `{"id":`...)
	r.str(rec.ID)
	r.buf = append(r.buf, `,"schema":`...)
	if s := rec.Schema; s == nil {
		r.buf = append(r.buf, "null"...)
	} else {
		r.buf = append(r.buf, `{"name":`...)
		r.str(s.Name)
		r.buf = append(r.buf, `,"attrs":`...)
		r.strs(s.Attrs)
		r.buf = append(r.buf, '}')
	}
	r.buf = append(r.buf, `,"values":`...)
	r.strs(rec.Values)
	r.buf = append(r.buf, '}')
	r.recs = append(r.recs, renderedRecord{rec, lo, len(r.buf)})
}

func (r *renderer) diagnostics(d *core.Diagnostics) {
	r.int(`{"left_triangles":`, d.LeftTriangles)
	r.int(`,"right_triangles":`, d.RightTriangles)
	r.intOmitEmpty(`,"augmented_left":`, d.AugmentedLeft)
	r.intOmitEmpty(`,"augmented_right":`, d.AugmentedRight)
	r.int(`,"lattice_queries":`, d.LatticeQueries)
	r.int(`,"lattice_predictions":`, d.LatticePredictions)
	r.int(`,"expected_predictions":`, d.ExpectedPredictions)
	r.int(`,"saved_predictions":`, d.SavedPredictions)
	r.intOmitEmpty(`,"wrong_inferences":`, d.WrongInferences)
	r.int(`,"triangle_search_calls":`, d.TriangleSearchCalls)
	r.int(`,"flips":`, d.Flips)
	r.int(`,"model_calls":`, d.ModelCalls)
	r.int(`,"batch_calls":`, d.BatchCalls)
	r.int(`,"cache_lookups":`, d.CacheLookups)
	r.int(`,"cache_hits":`, d.CacheHits)
	if d.Truncated {
		r.buf = append(r.buf, `,"truncated":true`...)
	}
	if d.TruncatedBy != "" {
		r.buf = append(r.buf, `,"truncated_by":`...)
		r.str(d.TruncatedBy)
	}
	r.intOmitEmpty(`,"pruned_queries":`, d.PrunedQueries)
	r.intOmitEmpty(`,"prune_levels":`, d.PruneLevels)
	r.int(`,"budget_spent":`, d.BudgetSpent)
	r.buf = append(r.buf, `,"completeness":`...)
	r.float(d.Completeness)
	r.buf = append(r.buf, '}')
}

// int writes a field name (with its leading separator) and value.
func (r *renderer) int(name string, v int) {
	r.buf = append(r.buf, name...)
	r.buf = strconv.AppendInt(r.buf, int64(v), 10)
}

func (r *renderer) intOmitEmpty(name string, v int) {
	if v != 0 {
		r.int(name, v)
	}
}

// float writes f as encoding/json does: 'f' format for 1e-6 <= |f| <
// 1e21 and zero, 'e' format otherwise with a negative exponent's
// leading zero dropped (1e-07 becomes 1e-7). json.Marshal rejects NaN
// and infinities; the renderer notes them and writes nothing.
func (r *renderer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.nonFinite = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	r.buf = strconv.AppendFloat(r.buf, f, format, -1, 64)
	if n := len(r.buf); format == 'e' && r.buf[n-4] == 'e' && r.buf[n-3] == '-' && r.buf[n-2] == '0' {
		r.buf[n-2] = r.buf[n-1]
		r.buf = r.buf[:n-1]
	}
}

// strs writes a string slice, null when nil.
func (r *renderer) strs(ss []string) {
	if ss == nil {
		r.buf = append(r.buf, "null"...)
		return
	}
	r.buf = append(r.buf, '[')
	for i, s := range ss {
		if i > 0 {
			r.buf = append(r.buf, ',')
		}
		r.str(s)
	}
	r.buf = append(r.buf, ']')
}

// attrRef writes an attribute reference as its text form, "L_name".
// The side letter and '_' need no escaping.
func (r *renderer) attrRef(ref record.AttrRef) {
	r.buf = append(r.buf, '"')
	r.buf = append(r.buf, ref.Side.String()...)
	r.buf = append(r.buf, '_')
	r.buf = appendEscaped(r.buf, ref.Attr)
	r.buf = append(r.buf, '"')
}

func (r *renderer) str(s string) {
	r.buf = append(r.buf, '"')
	r.buf = appendEscaped(r.buf, s)
	r.buf = append(r.buf, '"')
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends the inside of s's JSON string as json.Marshal
// writes it: '"' and '\\' backslashed, control characters as \b, \f,
// \n, \r, \t or \u00XX, '<', '>' and '&' as \u003c, \u003e and \u0026,
// U+2028 and U+2029 as \u2028 and \u2029, and each byte of invalid
// UTF-8 as \ufffd.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		ru, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case ru == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case ru == '\u2028' || ru == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[ru&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
