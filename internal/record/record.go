// Package record defines the relational data model used throughout the
// project: schemas, records, two-source tables, and record pairs — the
// unit of prediction in entity resolution.
//
// In the paper's notation a benchmark has two sources U and V, possibly
// with different schemas A_U and A_V. Explanations are expressed over the
// union of the two attribute sets, so the package also provides AttrRef,
// a side-qualified attribute reference rendered as "L_Name"/"R_Name"
// following Figure 12 of the paper.
package record

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"certa/internal/strutil"
)

// Side identifies which source of a benchmark a record (or attribute)
// belongs to.
type Side int

const (
	// Left is the U source (e.g. the Abt table of Abt-Buy).
	Left Side = iota
	// Right is the V source (e.g. the Buy table of Abt-Buy).
	Right
)

// String returns "L" or "R".
func (s Side) String() string {
	if s == Left {
		return "L"
	}
	return "R"
}

// Opposite returns the other side.
func (s Side) Opposite() Side {
	if s == Left {
		return Right
	}
	return Left
}

// MarshalText renders the side as "L"/"R", making JSON documents that
// embed a Side readable and stable across releases.
func (s Side) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses "L"/"R".
func (s *Side) UnmarshalText(b []byte) error {
	switch string(b) {
	case "L":
		*s = Left
	case "R":
		*s = Right
	default:
		return fmt.Errorf("record: cannot parse side %q (want L or R)", b)
	}
	return nil
}

// Schema describes one source: its name and ordered attribute list.
type Schema struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`

	index map[string]int
}

// NewSchema builds a schema, validating that attribute names are
// non-empty and unique.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("record: schema %q has no attributes", name)
	}
	idx := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("record: schema %q has empty attribute name at position %d", name, i)
		}
		if _, dup := idx[a]; dup {
			return nil, fmt.Errorf("record: schema %q has duplicate attribute %q", name, a)
		}
		idx[a] = i
	}
	return &Schema{Name: name, Attrs: append([]string(nil), attrs...), index: idx}, nil
}

// MustSchema is NewSchema that panics on error; for tests and static
// dataset definitions.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// AttrIndex returns the position of attribute a, or -1 if absent. A
// schema built by NewSchema answers from its name index; one built any
// other way (a struct literal, a decoded JSON document) has none and
// scans Attrs from the end, so a duplicated name answers its last
// position as an index would. Neither path writes, so concurrent calls
// are safe.
func (s *Schema) AttrIndex(a string) int {
	if s.index == nil {
		for i := len(s.Attrs) - 1; i >= 0; i-- {
			if s.Attrs[i] == a {
				return i
			}
		}
		return -1
	}
	if i, ok := s.index[a]; ok {
		return i
	}
	return -1
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.Attrs) }

// Record is a single structured entity description.
//
// Records are plain values: every field takes part in equality
// (reflect.DeepEqual on explanation results is part of the
// determinism contract), so derived views are not memoized on the
// record itself — read-heavy scans keep what they derive themselves.
type Record struct {
	ID     string   `json:"id"`
	Schema *Schema  `json:"schema"`
	Values []string `json:"values"` // parallel to Schema.Attrs
}

// New creates a record, checking that the value count matches the schema.
func New(id string, schema *Schema, values ...string) (*Record, error) {
	if schema == nil {
		return nil, fmt.Errorf("record: nil schema for record %q", id)
	}
	if len(values) != schema.Len() {
		return nil, fmt.Errorf("record: record %q has %d values for schema %q with %d attributes",
			id, len(values), schema.Name, schema.Len())
	}
	return &Record{ID: id, Schema: schema, Values: append([]string(nil), values...)}, nil
}

// MustNew is New that panics on error.
func MustNew(id string, schema *Schema, values ...string) *Record {
	r, err := New(id, schema, values...)
	if err != nil {
		panic(err)
	}
	return r
}

// Value returns the value of attribute a, or NaN if the attribute does
// not exist in the schema.
func (r *Record) Value(a string) string {
	i := r.Schema.AttrIndex(a)
	if i < 0 {
		return strutil.NaN
	}
	return r.Values[i]
}

// Missing reports whether attribute a is absent or has a missing value.
func (r *Record) Missing(a string) bool {
	return strutil.IsMissing(r.Value(a))
}

// Clone returns a deep copy (the schema is shared; it is immutable by
// convention).
func (r *Record) Clone() *Record {
	return &Record{ID: r.ID, Schema: r.Schema, Values: append([]string(nil), r.Values...)}
}

// WithValue returns a copy of r with attribute a set to v. Unknown
// attributes are ignored (a copy is still returned) so perturbation code
// can be schema-agnostic.
func (r *Record) WithValue(a, v string) *Record {
	c := r.Clone()
	if i := c.Schema.AttrIndex(a); i >= 0 {
		c.Values[i] = v
	}
	return c
}

// WithValues returns a copy of r with every attribute in vals replaced.
func (r *Record) WithValues(vals map[string]string) *Record {
	c := r.Clone()
	for a, v := range vals {
		if i := c.Schema.AttrIndex(a); i >= 0 {
			c.Values[i] = v
		}
	}
	return c
}

// Equal reports whether two records have the same schema name, ID and
// values.
func (r *Record) Equal(o *Record) bool {
	if r == nil || o == nil {
		return r == o
	}
	if r.ID != o.ID || r.Schema.Name != o.Schema.Name || len(r.Values) != len(o.Values) {
		return false
	}
	for i, v := range r.Values {
		if v != o.Values[i] {
			return false
		}
	}
	return true
}

// ChangedAttrs lists attributes whose values differ between r and o
// (which must share a schema).
func (r *Record) ChangedAttrs(o *Record) []string {
	var out []string
	for i, a := range r.Schema.Attrs {
		if i < len(o.Values) && r.Values[i] != o.Values[i] {
			out = append(out, a)
		}
	}
	return out
}

// Text returns all attribute values joined into one normalized string,
// the "record as text" view used by sequence-level matchers and by
// text-mode baselines.
func (r *Record) Text() string {
	var parts []string
	for _, v := range r.Values {
		if !strutil.IsMissing(v) {
			parts = append(parts, strutil.Normalize(v))
		}
	}
	return strings.Join(parts, " ")
}

// TokenSet returns the distinct tokens of the record's text view — the
// shared tokenization every token-level consumer (blocking, the
// retrieval index, the guided triangle search) derives its candidate
// structure from.
func (r *Record) TokenSet() map[string]struct{} {
	return strutil.TokenSet(r.Text())
}

// String renders the record for logs and error messages.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]{", r.Schema.Name, r.ID)
	for i, a := range r.Schema.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%q", a, r.Values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// Pair is the unit of ER prediction: a left record from U and a right
// record from V.
type Pair struct {
	Left  *Record `json:"left"`
	Right *Record `json:"right"`
}

// LabeledPair is a pair with its ground-truth match label, used for
// training and evaluation.
type LabeledPair struct {
	Pair
	Match bool
}

// Clone deep-copies the pair.
func (p Pair) Clone() Pair {
	return Pair{Left: p.Left.Clone(), Right: p.Right.Clone()}
}

// Record returns the record on the requested side.
func (p Pair) Record(s Side) *Record {
	if s == Left {
		return p.Left
	}
	return p.Right
}

// WithRecord returns a copy of p with the record on side s replaced.
func (p Pair) WithRecord(s Side, r *Record) Pair {
	if s == Left {
		return Pair{Left: r, Right: p.Right}
	}
	return Pair{Left: p.Left, Right: r}
}

// Value resolves a side-qualified attribute.
func (p Pair) Value(ref AttrRef) string {
	return p.Record(ref.Side).Value(ref.Attr)
}

// WithValue returns a copy of p with the referenced attribute replaced.
func (p Pair) WithValue(ref AttrRef, v string) Pair {
	side := ref.Side
	return p.WithRecord(side, p.Record(side).WithValue(ref.Attr, v))
}

// Key returns a stable identity string for the pair.
func (p Pair) Key() string {
	return p.Left.ID + "|" + p.Right.ID
}

// AttrRefs enumerates the side-qualified attributes of both records, left
// side first, in schema order — the A_U ∪ A_V of the paper.
func (p Pair) AttrRefs() []AttrRef {
	out := make([]AttrRef, 0, p.Left.Schema.Len()+p.Right.Schema.Len())
	for _, a := range p.Left.Schema.Attrs {
		out = append(out, AttrRef{Side: Left, Attr: a})
	}
	for _, a := range p.Right.Schema.Attrs {
		out = append(out, AttrRef{Side: Right, Attr: a})
	}
	return out
}

// AttrRef is a side-qualified attribute reference such as L_Name.
type AttrRef struct {
	Side Side
	Attr string
}

// String renders the reference with the paper's L_/R_ prefixes.
func (a AttrRef) String() string { return a.Side.String() + "_" + a.Attr }

// MarshalText renders the reference as its "L_Name" form, so AttrRef
// works both as a JSON value and as a JSON map key (encoding/json sorts
// text-marshaled keys, keeping documents deterministic).
func (a AttrRef) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses the "L_Name"/"R_Price" form.
func (a *AttrRef) UnmarshalText(b []byte) error {
	ref, err := ParseAttrRef(string(b))
	if err != nil {
		return err
	}
	*a = ref
	return nil
}

// ParseAttrRef parses "L_Name" / "R_Price" back into an AttrRef.
func ParseAttrRef(s string) (AttrRef, error) {
	switch {
	case strings.HasPrefix(s, "L_"):
		return AttrRef{Side: Left, Attr: s[2:]}, nil
	case strings.HasPrefix(s, "R_"):
		return AttrRef{Side: Right, Attr: s[2:]}, nil
	}
	return AttrRef{}, fmt.Errorf("record: cannot parse attribute reference %q (want L_/R_ prefix)", s)
}

// SortAttrRefs orders references deterministically: left before right,
// then by attribute name.
func SortAttrRefs(refs []AttrRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Side != refs[j].Side {
			return refs[i].Side < refs[j].Side
		}
		return refs[i].Attr < refs[j].Attr
	})
}

// Table is a collection of records sharing a schema, with an ID index.
type Table struct {
	Schema  *Schema
	Records []*Record

	byID map[string]*Record
}

// NewTable creates an empty table for the schema.
func NewTable(schema *Schema) *Table {
	return &Table{Schema: schema, byID: make(map[string]*Record)}
}

// Add appends a record, rejecting schema mismatches and duplicate IDs.
func (t *Table) Add(r *Record) error {
	if r.Schema != t.Schema && r.Schema.Name != t.Schema.Name {
		return fmt.Errorf("record: record %q has schema %q, table expects %q", r.ID, r.Schema.Name, t.Schema.Name)
	}
	if _, dup := t.byID[r.ID]; dup {
		return fmt.Errorf("record: duplicate record ID %q in table %q", r.ID, t.Schema.Name)
	}
	t.Records = append(t.Records, r)
	t.byID[r.ID] = r
	return nil
}

// MustAdd is Add that panics on error.
func (t *Table) MustAdd(r *Record) {
	if err := t.Add(r); err != nil {
		panic(err)
	}
}

// Get looks a record up by ID.
func (t *Table) Get(id string) (*Record, bool) {
	r, ok := t.byID[id]
	return r, ok
}

// Len returns the number of records.
func (t *Table) Len() int { return len(t.Records) }

// DistinctValues counts distinct non-missing attribute values across the
// table (the "Values" column of Table 1 in the paper).
func (t *Table) DistinctValues() int {
	set := make(map[string]struct{})
	for _, r := range t.Records {
		for _, v := range r.Values {
			if !strutil.IsMissing(v) {
				set[strutil.Normalize(v)] = struct{}{}
			}
		}
	}
	return len(set)
}

// WriteCSV writes the table with an "id" column followed by the schema
// attributes.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"id"}, t.Schema.Attrs...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("record: writing CSV header: %w", err)
	}
	row := make([]string, 0, len(header))
	for _, r := range t.Records {
		row = row[:0]
		row = append(row, r.ID)
		row = append(row, r.Values...)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("record: writing CSV row for %q: %w", r.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a table written by WriteCSV. The schema is derived from
// the header; name is the schema name to assign.
func ReadCSV(r io.Reader, name string) (*Table, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("record: reading CSV header: %w", err)
	}
	if len(header) < 2 || header[0] != "id" {
		return nil, fmt.Errorf("record: CSV header must start with \"id\", got %v", header)
	}
	schema, err := NewSchema(name, header[1:]...)
	if err != nil {
		return nil, err
	}
	t := NewTable(schema)
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("record: reading CSV line %d: %w", line, err)
		}
		rec, err := New(row[0], schema, row[1:]...)
		if err != nil {
			return nil, fmt.Errorf("record: CSV line %d: %w", line, err)
		}
		if err := t.Add(rec); err != nil {
			return nil, fmt.Errorf("record: CSV line %d: %w", line, err)
		}
	}
	return t, nil
}
