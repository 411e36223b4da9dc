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
//
// Key is the form outside the store: the server coalesces requests by
// it, the ring places pairs by ShardHash(Key(p)), and snapshot format
// v1 stores it. Inside a Service the same content is keyed by interned
// ids (Scorer.Key), which Snapshot and Keys render back to this form.
func Key(p record.Pair) string {
	var b strings.Builder
	b.Grow(recordLen(p.Left) + 1 + recordLen(p.Right))
	writeRecord(&b, p.Left)
	b.WriteByte('|')
	writeRecord(&b, p.Right)
	return b.String()
}

// The canonical key format is defined by the writers below and read
// back by parseRecord (intern.go): a record is its length-framed schema
// name ("3#Abt") followed by one length-framed fragment per value
// (";4:ipod"), a nil record is "<nil>", and a pair joins its two
// records with '|'.

const nilRecord = "<nil>"

func writeRecord(b *strings.Builder, r *record.Record) {
	if r == nil {
		b.WriteString(nilRecord)
		return
	}
	// The schema name is length-framed like the values: written bare, a
	// schema named "S;1:x" would collide with a schema "S" holding the
	// value "x".
	writeHeader(b, r.Schema.Name)
	for _, val := range r.Values {
		writeValue(b, val)
	}
}

// recordLen is the exact length writeRecord(b, r) writes.
func recordLen(r *record.Record) int {
	if r == nil {
		return len(nilRecord)
	}
	n := headerLen(r.Schema.Name)
	for _, val := range r.Values {
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

// PerturbKeyer assembles the store key of a mask-perturbed pair
// without materializing the perturbed record. CERTA's lattice oracle
// asks thousands of subset questions per explanation, and most of them
// are already memoized, so a question must not pay for a record clone.
//
// A keyer holds the words before and after the perturbed record's
// value ids (the other side's record and the schema header) and two
// value ids per attribute: the free record's value and the support
// record's value. PerturbKeyers resolves the words and the free ids
// once per (pair, side) and only the support's ids per keyer, since
// every support of a side shares the rest. WriteKey(b, mask)
// then writes head + the mask-selected id per attribute + tail, equal
// to the view's Key of perturb(pair, side, support, attrs, mask) — the
// property test TestPerturbKeyerMatchesMaterializedKey gates this. The
// lattice oracle writes a whole level's keys into one builder and cuts
// each key from its string, so a level costs one key allocation, not
// one per question. The mask is a plain uint32 in lattice bit order
// (bit i selects the support's value for Schema.Attrs[i]), kept untyped
// here so the cache layer stays independent of the lattice package.
type PerturbKeyer struct {
	head string
	tail string
	ids  [][2]uint32 // per attr: [0] free value id, [1] support value id
}

// PerturbKeyers prepares mask→key assembly for perturbations of the
// given side's record, one keyer per support, in order: keyer i copies
// its values from supports[i]. The free record on that side must be
// non-nil (a nil fixed record is tolerated, exactly like Key).
func (s *Scorer) PerturbKeyers(p record.Pair, side record.Side, supports []*record.Record) []PerturbKeyer {
	svc := s.svc
	free := p.Record(side)
	var head []byte
	if side == record.Right {
		head = svc.appendRecord(head, p.Left)
	}
	head = appendWord(head, svc.strs.id(free.Schema.Name))
	head = appendWord(head, uint32(len(free.Schema.Attrs)))

	var tail []byte
	if side == record.Left {
		tail = svc.appendRecord(tail, p.Right)
	}

	n := len(free.Schema.Attrs)
	freeIDs := make([]uint32, n)
	for i := range freeIDs {
		freeIDs[i] = svc.strs.id(free.Values[i])
	}
	keyers := make([]PerturbKeyer, len(supports))
	ids := make([][2]uint32, n*len(supports))
	h, t := string(head), string(tail)
	for k, w := range supports {
		kids := ids[k*n : (k+1)*n]
		for i, a := range free.Schema.Attrs {
			kids[i] = [2]uint32{freeIDs[i], svc.strs.id(w.Value(a))}
		}
		keyers[k] = PerturbKeyer{head: h, tail: t, ids: kids}
	}
	return keyers
}

// Len is the length of every key the keyer writes.
func (k *PerturbKeyer) Len() int { return len(k.head) + 4*len(k.ids) + len(k.tail) }

// WriteKey writes the store key for the subset mask to b: bit i selects
// the support record's value for attribute i, a zero bit keeps the free
// record's own value.
func (k *PerturbKeyer) WriteKey(b *strings.Builder, mask uint32) {
	b.WriteString(k.head)
	for i := range k.ids {
		writeWord(b, k.ids[i][(mask>>uint(i))&1])
	}
	b.WriteString(k.tail)
}

// Key returns the store key for the subset mask, as WriteKey writes it.
func (k *PerturbKeyer) Key(mask uint32) string {
	var b strings.Builder
	b.Grow(k.Len())
	k.WriteKey(&b, mask)
	return b.String()
}

// SupportKeyer assembles the store key of a triangle support candidate
// paired with the scan's fixed record, without building the pair or,
// for a token-drop variant, the candidate record. The support scan asks
// one score question per candidate and the store answers most of them,
// so the keyer resolves the fixed record's ids once and takes each
// candidate's from the Service's cache of table records (tableRecord),
// which hashes no value bytes. A token-drop variant is named by its
// interned id: Variants returns the ids of a table value's variants,
// derived once per Service, record and attribute, and Value reads a
// variant back for the records the model must score. The scan writes a
// chunk's keys into one builder (WriteKey) and cuts each from its
// string. The keyer also keeps the last record it looked up, since the
// scan keys a record's variants one after another. Records are built
// only for the model and for accepted supports.
//
// A SupportKeyer is not safe for concurrent use; each scan takes its
// own. The table records it resolves are shared by every keyer of the
// Service.
type SupportKeyer struct {
	svc   *Service
	side  record.Side // the side candidates take
	fixed string      // the opposite side's record words

	last    *record.Record // the record last keyed, and its cached words
	lastRec *tableRecord
}

// SupportKeyer prepares keys for candidates replacing p's record on
// side. The fixed (opposite) record may be nil, exactly like Key.
func (s *Scorer) SupportKeyer(p record.Pair, side record.Side) *SupportKeyer {
	fixed := s.svc.appendRecord(nil, p.Record(side.Opposite()))
	return &SupportKeyer{svc: s.svc, side: side, fixed: string(fixed)}
}

// record returns w's cached table record.
func (k *SupportKeyer) record(w *record.Record) *tableRecord {
	if w != k.last || !k.lastRec.current(w) {
		k.last, k.lastRec = w, k.svc.tableRecord(w)
	}
	return k.lastRec
}

// Variants returns the ids of strutil.TokenDrops(w.Values[at]), in that
// order. The ids are derived on the Service's first request for w's
// attribute at and shared by every later one; the slice is read-only.
func (k *SupportKeyer) Variants(w *record.Record, at int) []uint32 {
	return k.record(w).variants(at, &k.svc.strs)
}

// Value returns the string an id of Variants stands for.
func (k *SupportKeyer) Value(id uint32) string { return k.svc.strs.table()[id] }

// Len is the length of the key WriteKey writes for a candidate taken
// from w.
func (k *SupportKeyer) Len(w *record.Record) int { return len(k.fixed) + 8 + 4*len(w.Values) }

// WriteKey writes to b the view's Key of p.WithRecord(side, c), where c
// is the table record w with the value at index at replaced by the
// string of id (an id of Variants or of Key's interning); at < 0 keys w
// itself and ignores id.
func (k *SupportKeyer) WriteKey(b *strings.Builder, w *record.Record, at int, id uint32) {
	rec := k.record(w).words
	if k.side == record.Right {
		b.WriteString(k.fixed)
	}
	if at < 0 {
		b.WriteString(rec)
	} else {
		off := 8 + 4*at // past the name id and the value count
		b.WriteString(rec[:off])
		writeWord(b, id)
		b.WriteString(rec[off+4:])
	}
	if k.side == record.Left {
		b.WriteString(k.fixed)
	}
}

// Key returns the view's Key of p.WithRecord(side, c), where c is the
// table record w with the value at index at replaced by v; at < 0 keys
// w itself. It is WriteKey with v interned.
func (k *SupportKeyer) Key(w *record.Record, at int, v string) string {
	var id uint32
	if at >= 0 {
		id = k.svc.strs.id(v)
	}
	var b strings.Builder
	b.Grow(k.Len(w))
	k.WriteKey(&b, w, at, id)
	return b.String()
}
