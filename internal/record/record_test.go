package record

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"certa/internal/strutil"
)

func abtSchema() *Schema { return MustSchema("Abt", "Name", "Description", "Price") }

func sampleRecord() *Record {
	return MustNew("u1", abtSchema(), "sony bravia theater", "sony bravia theater black micro", strutil.NaN)
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema("X"); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewSchema("X", "a", "a"); err == nil {
		t.Error("duplicate attribute should fail")
	}
	if _, err := NewSchema("X", "a", ""); err == nil {
		t.Error("empty attribute name should fail")
	}
	s, err := NewSchema("X", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if s.AttrIndex("b") != 1 || s.AttrIndex("zz") != -1 {
		t.Error("AttrIndex wrong")
	}
	if s.Len() != 2 {
		t.Error("Len wrong")
	}
}

// TestAttrIndexConcurrentLiteralSchema: a schema that did not come
// from NewSchema (a struct literal, or one decoded from JSON) has no
// name index, and concurrent explanations call AttrIndex on it from
// many goroutines. Under -race this fails if that path writes to the
// schema.
func TestAttrIndexConcurrentLiteralSchema(t *testing.T) {
	s := &Schema{Name: "S", Attrs: []string{"a", "b", "c"}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := s.AttrIndex("b"); got != 1 {
					t.Errorf("AttrIndex(b) = %d, want 1", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.AttrIndex("zz") != -1 {
		t.Error("AttrIndex of an absent attribute is not -1")
	}
	dup := &Schema{Name: "D", Attrs: []string{"a", "b", "a"}}
	if got := dup.AttrIndex("a"); got != 2 {
		t.Errorf("AttrIndex of a duplicated name = %d, want its last position 2", got)
	}
}

func TestNewRecordValidation(t *testing.T) {
	s := abtSchema()
	if _, err := New("u1", s, "only two", "values"); err == nil {
		t.Error("value count mismatch should fail")
	}
	if _, err := New("u1", nil, "v"); err == nil {
		t.Error("nil schema should fail")
	}
}

func TestRecordValueAndMissing(t *testing.T) {
	r := sampleRecord()
	if got := r.Value("Name"); got != "sony bravia theater" {
		t.Errorf("Value(Name) = %q", got)
	}
	if got := r.Value("Nope"); got != strutil.NaN {
		t.Errorf("Value(unknown) = %q, want NaN", got)
	}
	if !r.Missing("Price") {
		t.Error("Price should be missing")
	}
	if r.Missing("Name") {
		t.Error("Name should not be missing")
	}
}

func TestCloneAndWithValue(t *testing.T) {
	r := sampleRecord()
	c := r.WithValue("Name", "changed")
	if r.Value("Name") == "changed" {
		t.Error("WithValue mutated the original")
	}
	if c.Value("Name") != "changed" {
		t.Error("WithValue did not apply")
	}
	if !r.Equal(r.Clone()) {
		t.Error("Clone should be Equal")
	}
	c2 := r.WithValues(map[string]string{"Name": "x", "Price": "9"})
	if c2.Value("Name") != "x" || c2.Value("Price") != "9" {
		t.Error("WithValues did not apply")
	}
	// Unknown attribute is ignored, not an error.
	c3 := r.WithValue("Ghost", "v")
	if !c3.Equal(r) {
		t.Error("unknown attribute should leave record unchanged")
	}
}

func TestChangedAttrs(t *testing.T) {
	r := sampleRecord()
	c := r.WithValues(map[string]string{"Name": "x", "Price": "9"})
	ch := r.ChangedAttrs(c)
	if len(ch) != 2 || ch[0] != "Name" || ch[1] != "Price" {
		t.Errorf("ChangedAttrs = %v", ch)
	}
	if got := r.ChangedAttrs(r.Clone()); len(got) != 0 {
		t.Errorf("no changes expected, got %v", got)
	}
}

func TestRecordText(t *testing.T) {
	r := sampleRecord()
	text := r.Text()
	if strings.Contains(text, strutil.NaN) {
		t.Error("Text should omit missing values")
	}
	if !strings.Contains(text, "sony bravia theater") {
		t.Errorf("Text = %q", text)
	}
}

func TestPairBasics(t *testing.T) {
	buy := MustSchema("Buy", "Name", "Description", "Price")
	p := Pair{
		Left:  sampleRecord(),
		Right: MustNew("v1", buy, "sony bravia dav-is50", "dvd player", "379.72"),
	}
	if p.Record(Left).ID != "u1" || p.Record(Right).ID != "v1" {
		t.Error("Record(side) wrong")
	}
	if p.Key() != "u1|v1" {
		t.Errorf("Key = %q", p.Key())
	}
	refs := p.AttrRefs()
	if len(refs) != 6 {
		t.Fatalf("AttrRefs len = %d", len(refs))
	}
	if refs[0].String() != "L_Name" || refs[5].String() != "R_Price" {
		t.Errorf("refs = %v", refs)
	}
	if got := p.Value(AttrRef{Right, "Price"}); got != "379.72" {
		t.Errorf("Value = %q", got)
	}
	q := p.WithValue(AttrRef{Left, "Name"}, "new name")
	if p.Left.Value("Name") == "new name" {
		t.Error("WithValue mutated original pair")
	}
	if q.Left.Value("Name") != "new name" {
		t.Error("WithValue did not apply")
	}
}

func TestAttrRefParseRoundtrip(t *testing.T) {
	for _, s := range []string{"L_Name", "R_Description", "L_Beer_Name"} {
		ref, err := ParseAttrRef(s)
		if err != nil {
			t.Fatal(err)
		}
		if ref.String() != s {
			t.Errorf("roundtrip %q -> %q", s, ref.String())
		}
	}
	if _, err := ParseAttrRef("Name"); err == nil {
		t.Error("unprefixed ref should fail")
	}
}

func TestSideOpposite(t *testing.T) {
	if Left.Opposite() != Right || Right.Opposite() != Left {
		t.Error("Opposite wrong")
	}
	if Left.String() != "L" || Right.String() != "R" {
		t.Error("String wrong")
	}
}

func TestSortAttrRefs(t *testing.T) {
	refs := []AttrRef{{Right, "b"}, {Left, "z"}, {Right, "a"}, {Left, "a"}}
	SortAttrRefs(refs)
	want := []string{"L_a", "L_z", "R_a", "R_b"}
	for i, w := range want {
		if refs[i].String() != w {
			t.Errorf("refs[%d] = %v, want %v", i, refs[i], w)
		}
	}
}

func TestTableAddGet(t *testing.T) {
	tab := NewTable(abtSchema())
	r := sampleRecord()
	if err := tab.Add(r); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(r); err == nil {
		t.Error("duplicate ID should fail")
	}
	other := MustNew("x", MustSchema("Other", "A"), "v")
	if err := tab.Add(other); err == nil {
		t.Error("schema mismatch should fail")
	}
	got, ok := tab.Get("u1")
	if !ok || got.ID != "u1" {
		t.Error("Get failed")
	}
	if _, ok := tab.Get("missing"); ok {
		t.Error("Get(missing) should be false")
	}
	if tab.Len() != 1 {
		t.Error("Len wrong")
	}
}

func TestDistinctValues(t *testing.T) {
	tab := NewTable(abtSchema())
	tab.MustAdd(MustNew("a", tab.Schema, "x", "y", strutil.NaN))
	tab.MustAdd(MustNew("b", tab.Schema, "x", "z", strutil.NaN))
	// Distinct non-missing normalized values: x, y, z.
	if got := tab.DistinctValues(); got != 3 {
		t.Errorf("DistinctValues = %d, want 3", got)
	}
}

func TestCSVRoundtrip(t *testing.T) {
	tab := NewTable(abtSchema())
	tab.MustAdd(sampleRecord())
	tab.MustAdd(MustNew("u2", tab.Schema, "altec lansing", "inmotion portable", "49.99"))
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "Abt")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("roundtrip len = %d", back.Len())
	}
	r, _ := back.Get("u2")
	if r.Value("Price") != "49.99" {
		t.Errorf("roundtrip value = %q", r.Value("Price"))
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("nope,header\n"), "X"); err == nil {
		t.Error("missing id column should fail")
	}
	if _, err := ReadCSV(strings.NewReader(""), "X"); err == nil {
		t.Error("empty input should fail")
	}
	// Duplicate IDs.
	csv := "id,a\n1,x\n1,y\n"
	if _, err := ReadCSV(strings.NewReader(csv), "X"); err == nil {
		t.Error("duplicate IDs should fail")
	}
}

func TestPairCloneIndependence(t *testing.T) {
	p := Pair{Left: sampleRecord(), Right: sampleRecord()}
	c := p.Clone()
	c.Left.Values[0] = "mutated"
	if p.Left.Values[0] == "mutated" {
		t.Error("Clone shares storage with original")
	}
}

func TestWithValueProperty(t *testing.T) {
	// WithValue never affects other attributes and always sets the target.
	r := sampleRecord()
	f := func(v string) bool {
		c := r.WithValue("Description", v)
		return c.Value("Description") == v &&
			c.Value("Name") == r.Value("Name") &&
			c.Value("Price") == r.Value("Price")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecordTokenSet(t *testing.T) {
	r := MustNew("x", MustSchema("S", "a", "b"), "Alpha beta", "beta GAMMA")
	set := r.TokenSet()
	for _, tok := range []string{"alpha", "beta", "gamma"} {
		if _, ok := set[tok]; !ok {
			t.Errorf("TokenSet missing %q: %v", tok, set)
		}
	}
	if len(set) != 3 {
		t.Errorf("TokenSet has %d entries, want 3: %v", len(set), set)
	}
}
