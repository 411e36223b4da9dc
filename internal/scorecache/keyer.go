package scorecache

import (
	"strconv"
	"strings"

	"certa/internal/record"
)

// Key renders the canonical content of a pair: schema names and every
// attribute value, length-framed so distinct contents cannot collide.
// Record IDs are deliberately excluded — augmentation mints synthetic
// IDs for otherwise identical perturbations, and models score values,
// not identifiers.
func Key(p record.Pair) string {
	var b strings.Builder
	b.Grow(recordLen(p.Left, -1, "") + 1 + recordLen(p.Right, -1, ""))
	writeRecord(&b, p.Left, -1, "")
	b.WriteByte('|')
	writeRecord(&b, p.Right, -1, "")
	return b.String()
}

// The canonical key format is defined by the writers below and nowhere
// else: a record is its length-framed schema name ("3#Abt") followed by
// one length-framed fragment per value (";4:ipod"), a nil record is
// "<nil>", and a pair joins its two records with '|'. Every key builder
// sizes its output exactly from the matching *Len function, so a stored
// key holds no spare capacity.

const nilRecord = "<nil>"

// writeRecord serializes r; when at >= 0, v stands in for r.Values[at].
func writeRecord(b *strings.Builder, r *record.Record, at int, v string) {
	if r == nil {
		b.WriteString(nilRecord)
		return
	}
	// The schema name is length-framed like the values: written bare, a
	// schema named "S;1:x" would collide with a schema "S" holding the
	// value "x".
	writeHeader(b, r.Schema.Name)
	for i, val := range r.Values {
		if i == at {
			val = v
		}
		writeValue(b, val)
	}
}

// recordLen is the exact length writeRecord(b, r, at, v) writes.
func recordLen(r *record.Record, at int, v string) int {
	if r == nil {
		return len(nilRecord)
	}
	n := headerLen(r.Schema.Name)
	for i, val := range r.Values {
		if i == at {
			val = v
		}
		n += valueLen(val)
	}
	return n
}

func writeHeader(b *strings.Builder, name string) {
	writeDec(b, len(name))
	b.WriteByte('#')
	b.WriteString(name)
}

func headerLen(name string) int { return decLen(len(name)) + 1 + len(name) }

func writeValue(b *strings.Builder, v string) {
	b.WriteByte(';')
	writeDec(b, len(v))
	b.WriteByte(':')
	b.WriteString(v)
}

func valueLen(v string) int { return 1 + decLen(len(v)) + 1 + len(v) }

// writeDec writes n in decimal without allocating (strconv.Itoa does
// for n >= 100, i.e. for every long description value).
func writeDec(b *strings.Builder, n int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(n), 10))
}

// decLen is the number of decimal digits of n >= 0.
func decLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// valueFragment returns v's framed fragment as a string.
func valueFragment(v string) string {
	var b strings.Builder
	b.Grow(valueLen(v))
	writeValue(&b, v)
	return b.String()
}

// PerturbKeyer assembles the canonical cache Key of a mask-perturbed
// pair without materializing the perturbed record. CERTA's lattice
// oracle asks thousands of subset questions per explanation, and before
// this existed every question paid for a full record clone plus a map of
// copied values just to discover the answer was already memoized.
//
// The keyer precomputes, once per (pair, side, support record):
//
//   - the serialized bytes before and after the perturbed record's value
//     fragments (the other side's whole record and the schema header),
//   - two ";len:value" fragments per attribute — the free record's value
//     and the support record's value.
//
// Key(mask) then concatenates head + the mask-selected fragment per
// attribute + tail, byte-for-byte identical to
// Key(perturb(pair, side, support, attrs, mask)) — the property test
// TestPerturbKeyerMatchesMaterializedKey gates this. The mask is a plain
// uint32 in lattice bit order (bit i selects the support's value for
// Schema.Attrs[i]), kept untyped here so the cache layer stays
// independent of the lattice package.
type PerturbKeyer struct {
	head  string
	tail  string
	frags [][2]string // per attr: [0] free value fragment, [1] support value fragment
}

// NewPerturbKeyer prepares mask→key assembly for perturbations of the
// given side's record with values copied from support w. The free record
// on that side must be non-nil (a nil fixed record is tolerated, exactly
// like Key).
func NewPerturbKeyer(p record.Pair, side record.Side, w *record.Record) *PerturbKeyer {
	free := p.Record(side)
	var head strings.Builder
	if side == record.Right {
		writeRecord(&head, p.Left, -1, "")
		head.WriteByte('|')
	}
	writeHeader(&head, free.Schema.Name)

	var tail strings.Builder
	if side == record.Left {
		tail.WriteByte('|')
		writeRecord(&tail, p.Right, -1, "")
	}

	frags := make([][2]string, len(free.Schema.Attrs))
	for i, a := range free.Schema.Attrs {
		frags[i][0] = valueFragment(free.Values[i])
		frags[i][1] = valueFragment(w.Value(a))
	}
	return &PerturbKeyer{head: head.String(), tail: tail.String(), frags: frags}
}

// Key assembles the canonical key for the subset mask: bit i selects the
// support record's value for attribute i, a zero bit keeps the free
// record's own value.
func (k *PerturbKeyer) Key(mask uint32) string {
	n := len(k.head) + len(k.tail)
	for i := range k.frags {
		n += len(k.frags[i][(mask>>uint(i))&1])
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(k.head)
	for i := range k.frags {
		b.WriteString(k.frags[i][(mask>>uint(i))&1])
	}
	b.WriteString(k.tail)
	return b.String()
}

// SupportKeyer assembles the canonical Key of a triangle support
// candidate paired with the scan's fixed record, without building the
// pair or, for a token-drop variant, the candidate record. The support
// scan asks one score question per candidate and the store answers most
// of them, so the scan serializes the fixed record once (NewSupportKeyer)
// and each candidate straight from its source record's values, and
// builds a record only for the model and for accepted supports.
type SupportKeyer struct {
	side  record.Side // the side candidates take
	fixed string      // the opposite side's serialized record
}

// NewSupportKeyer prepares keys for candidates replacing p's record on
// side. The fixed (opposite) record may be nil, exactly like Key.
func NewSupportKeyer(p record.Pair, side record.Side) *SupportKeyer {
	fixed := p.Record(side.Opposite())
	var b strings.Builder
	b.Grow(recordLen(fixed, -1, ""))
	writeRecord(&b, fixed, -1, "")
	return &SupportKeyer{side: side, fixed: b.String()}
}

// Key returns Key(p.WithRecord(side, c)), where c is w with the value at
// index at replaced by v; at < 0 keys w itself.
func (k *SupportKeyer) Key(w *record.Record, at int, v string) string {
	var b strings.Builder
	b.Grow(recordLen(w, at, v) + 1 + len(k.fixed))
	if k.side == record.Left {
		writeRecord(&b, w, at, v)
		b.WriteByte('|')
		b.WriteString(k.fixed)
	} else {
		b.WriteString(k.fixed)
		b.WriteByte('|')
		writeRecord(&b, w, at, v)
	}
	return b.String()
}
