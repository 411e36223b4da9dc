package core

import (
	"strings"
	"testing"

	"certa/internal/record"
	"certa/internal/strutil"
)

// rightOnlyModel matches iff the right record's desc contains "magic" —
// only right-side perturbations can flip it, exercising right open
// triangles in isolation.
type rightOnlyModel struct{}

func (rightOnlyModel) Name() string { return "right-only" }
func (rightOnlyModel) Score(p record.Pair) float64 {
	if strings.Contains(strutil.Normalize(p.Right.Value("desc")), "magic") {
		return 0.9
	}
	return 0.1
}

func TestRightOnlyTriangles(t *testing.T) {
	ls := record.MustSchema("U", "name", "desc", "price")
	rs := record.MustSchema("V", "name", "desc", "price")
	left := record.NewTable(ls)
	right := record.NewTable(rs)
	for i := 0; i < 6; i++ {
		id := string(rune('a' + i))
		left.MustAdd(record.MustNew("l"+id, ls, "name "+id, "plain desc "+id, "1"))
		desc := "plain desc " + id
		if i%2 == 0 {
			desc = "magic desc " + id
		}
		right.MustAdd(record.MustNew("r"+id, rs, "name "+id, desc, "1"))
	}
	u, _ := left.Get("la")
	v, _ := right.Get("rb") // non-magic: predicted non-match
	e := New(left, right, Options{Triangles: 6, Seed: 1, DisableAugmentation: true})
	res, err := e.Explain(rightOnlyModel{}, record.Pair{Left: u, Right: v})
	if err != nil {
		t.Fatal(err)
	}
	// Left triangles cannot exist: no left-side perturbation changes the
	// prediction, and no w has M(w, v)=Match since the model ignores the
	// left record entirely.
	if res.Diag.LeftTriangles != 0 {
		t.Errorf("left triangles = %d, want 0 for a right-only model", res.Diag.LeftTriangles)
	}
	if res.Diag.RightTriangles == 0 {
		t.Fatal("no right triangles found")
	}
	// All saliency mass sits on R_desc.
	rDesc := res.Saliency.Scores[record.AttrRef{Side: record.Right, Attr: "desc"}]
	if rDesc <= 0 {
		t.Error("R_desc should carry saliency")
	}
	for ref, v := range res.Saliency.Scores {
		if ref.Side == record.Left && v != 0 {
			t.Errorf("left attribute %v has saliency %v, want 0", ref, v)
		}
	}
	// A★ must be {R desc}.
	if res.BestSet.Side != record.Right || len(res.BestSet.Attrs) != 1 || res.BestSet.Attrs[0] != "desc" {
		t.Errorf("A★ = %v, want R:{desc}", res.BestSet)
	}
}

func TestMaxLatticeAttrsGuard(t *testing.T) {
	// A 14-attribute schema exceeds the default 12-attribute lattice
	// guard: the explanation degrades gracefully to no lattice work.
	attrs := make([]string, 14)
	for i := range attrs {
		attrs[i] = "a" + string(rune('a'+i))
	}
	ls := record.MustSchema("U", attrs...)
	rs := record.MustSchema("V", attrs...)
	left := record.NewTable(ls)
	right := record.NewTable(rs)
	vals := make([]string, 14)
	for i := range vals {
		vals[i] = "v"
	}
	left.MustAdd(record.MustNew("l0", ls, vals...))
	left.MustAdd(record.MustNew("l1", ls, vals...))
	right.MustAdd(record.MustNew("r0", rs, vals...))
	right.MustAdd(record.MustNew("r1", rs, vals...))
	u, _ := left.Get("l0")
	v, _ := right.Get("r0")
	e := New(left, right, Options{Triangles: 4, Seed: 1})
	res, err := e.Explain(constScore(0.4), record.Pair{Left: u, Right: v})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.LatticePredictions != 0 {
		t.Error("lattice exploration should be skipped beyond MaxLatticeAttrs")
	}
}

func TestSingleTriangleBudget(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 1, Seed: 2, DisableAugmentation: true})
	res, err := e.Explain(nameModel{}, nonMatchPair(left, right))
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.LeftTriangles > 1 || res.Diag.RightTriangles > 1 {
		t.Errorf("triangle budget exceeded: %d+%d", res.Diag.LeftTriangles, res.Diag.RightTriangles)
	}
}

func TestCounterfactualsDeduplicated(t *testing.T) {
	// Two identical support records produce identical perturbations; the
	// counterfactual list must not contain duplicates.
	ls := record.MustSchema("U", "name", "desc", "price")
	rs := record.MustSchema("V", "name", "desc", "price")
	left := record.NewTable(ls)
	right := record.NewTable(rs)
	left.MustAdd(record.MustNew("l0", ls, "alpha beta", "d0", "1"))
	left.MustAdd(record.MustNew("l1", ls, "gamma delta", "d1", "2"))
	left.MustAdd(record.MustNew("l2", ls, "gamma delta", "d1", "2")) // duplicate of l1
	right.MustAdd(record.MustNew("r0", rs, "alpha beta", "d0", "1"))
	right.MustAdd(record.MustNew("r1", rs, "gamma delta", "d1", "2"))

	u, _ := left.Get("l0")
	v, _ := right.Get("r1")
	e := New(left, right, Options{Triangles: 10, Seed: 3, DisableAugmentation: true})
	res, err := e.Explain(nameModel{}, record.Pair{Left: u, Right: v})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, cf := range res.Counterfactuals {
		key := cf.Pair.Left.String() + "|" + cf.Pair.Right.String()
		if seen[key] {
			t.Fatalf("duplicate counterfactual: %s", key)
		}
		seen[key] = true
	}
}

func TestSufficiencyProbabilitiesInRange(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 10, Seed: 4})
	res, err := e.Explain(twoAttrModel{}, nonMatchPair(left, right))
	if err != nil {
		t.Fatal(err)
	}
	for key, chi := range res.Sufficiency {
		if chi < 0 || chi > 1 {
			t.Errorf("χ(%s) = %v out of [0,1]", key, chi)
		}
	}
	for ref, phi := range res.Saliency.Scores {
		if phi < 0 || phi > 1 {
			t.Errorf("φ(%v) = %v out of [0,1]", ref, phi)
		}
	}
	if res.BestSufficiency < 0 || res.BestSufficiency > 1 {
		t.Errorf("χ★ = %v out of range", res.BestSufficiency)
	}
}

func TestSeedChangesTriangleSelection(t *testing.T) {
	left, right := buildTables()
	p := matchPair(left, right) // many eligible supports on both sides
	a, err := New(left, right, Options{Triangles: 4, Seed: 1, DisableAugmentation: true}).Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(left, right, Options{Triangles: 4, Seed: 99, DisableAugmentation: true}).Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	// With 9 eligible supports and a budget of 2 per side, different
	// seeds should (almost surely) select different support sets; the
	// counterfactual values then differ.
	if len(a.Counterfactuals) > 0 && len(b.Counterfactuals) > 0 {
		sameAll := len(a.Counterfactuals) == len(b.Counterfactuals)
		if sameAll {
			for i := range a.Counterfactuals {
				if !a.Counterfactuals[i].Pair.Left.Equal(b.Counterfactuals[i].Pair.Left) {
					sameAll = false
					break
				}
			}
		}
		if sameAll {
			t.Log("seeds selected identical supports (possible but unlikely); not failing")
		}
	}
}
