package core

import (
	"fmt"
	"testing"

	"certa/internal/explain"
	"certa/internal/record"
	"certa/internal/strutil"
)

// nameModel is a transparent ER "classifier": match iff the name token
// sets overlap by more than half. Its ground-truth behaviour lets tests
// assert exactly which attributes are necessary and sufficient.
type nameModel struct{}

func (nameModel) Name() string { return "name-oracle" }
func (nameModel) Score(p record.Pair) float64 {
	if strutil.Jaccard(p.Left.Value("name"), p.Right.Value("name")) > 0.5 {
		return 0.9
	}
	return 0.1
}

// twoAttrModel matches iff name agrees OR (desc agrees AND price agrees):
// a non-monotone-free structure for sufficiency-set tests.
type twoAttrModel struct{}

func (twoAttrModel) Name() string { return "two-attr" }
func (twoAttrModel) Score(p record.Pair) float64 {
	nameOK := strutil.Jaccard(p.Left.Value("name"), p.Right.Value("name")) > 0.5
	descOK := strutil.Jaccard(p.Left.Value("desc"), p.Right.Value("desc")) > 0.5
	priceOK := strutil.Jaccard(p.Left.Value("price"), p.Right.Value("price")) > 0.5
	if nameOK || (descOK && priceOK) {
		return 0.85
	}
	return 0.15
}

// buildTables creates two small sources with controllable values.
func buildTables() (*record.Table, *record.Table) {
	ls := record.MustSchema("U", "name", "desc", "price")
	rs := record.MustSchema("V", "name", "desc", "price")
	left := record.NewTable(ls)
	right := record.NewTable(rs)
	names := []string{"alpha beta", "gamma delta", "epsilon zeta", "eta theta", "iota kappa",
		"lambda mu", "nu xi", "omicron pi", "rho sigma", "tau upsilon"}
	for i, n := range names {
		left.MustAdd(record.MustNew(fmt.Sprintf("l%d", i), ls, n, "desc "+n, fmt.Sprintf("%d", 10+i)))
		right.MustAdd(record.MustNew(fmt.Sprintf("r%d", i), rs, n, "desc "+n, fmt.Sprintf("%d", 10+i)))
	}
	return left, right
}

func nonMatchPair(left, right *record.Table) record.Pair {
	u, _ := left.Get("l0")  // name "alpha beta"
	v, _ := right.Get("r1") // name "gamma delta"
	return record.Pair{Left: u, Right: v}
}

func matchPair(left, right *record.Table) record.Pair {
	u, _ := left.Get("l0")
	v, _ := right.Get("r0")
	return record.Pair{Left: u, Right: v}
}

func TestExplainNonMatchFindsNameNecessity(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 10, Seed: 1, DisableAugmentation: true})
	res, err := e.Explain(nameModel{}, nonMatchPair(left, right))
	if err != nil {
		t.Fatal(err)
	}
	sal := res.Saliency.Scores
	lName := sal[record.AttrRef{Side: record.Left, Attr: "name"}]
	lDesc := sal[record.AttrRef{Side: record.Left, Attr: "desc"}]
	lPrice := sal[record.AttrRef{Side: record.Left, Attr: "price"}]
	rName := sal[record.AttrRef{Side: record.Right, Attr: "name"}]
	if lName <= lDesc || lName <= lPrice {
		t.Errorf("name saliency %v should dominate desc %v and price %v", lName, lDesc, lPrice)
	}
	// The model only looks at name, so every flipped lattice node (on
	// either side) contains its side's name attribute: φ is normalized by
	// the global flip count, hence φ(L_name) + φ(R_name) = 1.
	if sum := lName + rName; sum < 0.999 || sum > 1.001 {
		t.Errorf("φ(L_name)+φ(R_name) = %v, want 1 for the name-only model", sum)
	}
}

func TestExplainNonMatchCounterfactuals(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 10, Seed: 1, DisableAugmentation: true})
	p := nonMatchPair(left, right)
	res, err := e.Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterfactuals) == 0 {
		t.Fatal("expected counterfactuals")
	}
	// A★ must be a single name attribute with χ = 1.
	if len(res.BestSet.Attrs) != 1 || res.BestSet.Attrs[0] != "name" {
		t.Errorf("A★ = %v, want {name}", res.BestSet)
	}
	if res.BestSufficiency != 1 {
		t.Errorf("χ★ = %v, want 1", res.BestSufficiency)
	}
	for _, cf := range res.Counterfactuals {
		if !cf.Flips() {
			t.Errorf("counterfactual does not flip: score %v orig %v", cf.Score, cf.OriginalScore())
		}
		if len(cf.Changed) == 0 {
			t.Error("counterfactual with no changed attributes")
		}
		for _, ref := range cf.Changed {
			if ref.Attr != "name" {
				t.Errorf("changed attr %v, want only name", ref)
			}
		}
	}
}

func TestExplainMatchDirection(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 10, Seed: 2, DisableAugmentation: true})
	p := matchPair(left, right)
	res, err := e.Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Explaining a Match: supports are non-matching records; copying
	// their names breaks the match. Name carries all necessity mass.
	lName := res.Saliency.Scores[record.AttrRef{Side: record.Left, Attr: "name"}]
	rName := res.Saliency.Scores[record.AttrRef{Side: record.Right, Attr: "name"}]
	if sum := lName + rName; sum < 0.999 || sum > 1.001 {
		t.Errorf("φ(L_name)+φ(R_name) = %v, want 1", sum)
	}
	if len(res.Counterfactuals) == 0 {
		t.Fatal("expected counterfactuals for match prediction")
	}
	for _, cf := range res.Counterfactuals {
		if cf.Score > 0.5 {
			t.Errorf("counterfactual of a match should score below 0.5, got %v", cf.Score)
		}
	}
}

func TestSufficiencyOfConjunction(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 10, Seed: 3, DisableAugmentation: true})
	p := nonMatchPair(left, right)
	res, err := e.Explain(twoAttrModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	// Both {name} and {desc,price} are sufficient; A★ should prefer the
	// singleton when χ ties, and χ({name}) = 1 regardless.
	chiName := res.Sufficiency[AttrSet{Side: record.Left, Attrs: []string{"name"}}.Key()]
	if chiName != 1 {
		t.Errorf("χ(L:{name}) = %v, want 1", chiName)
	}
	if len(res.BestSet.Attrs) != 1 {
		t.Errorf("A★ = %v, want a singleton (tie-break on size)", res.BestSet)
	}
	// The conjunction must appear in the sufficiency table.
	chiPair := res.Sufficiency[AttrSet{Side: record.Left, Attrs: []string{"desc", "price"}}.Key()]
	if chiPair <= 0 {
		t.Errorf("χ(L:{desc,price}) = %v, want > 0", chiPair)
	}
}

func TestMonotoneSavesPredictions(t *testing.T) {
	left, right := buildTables()
	p := nonMatchPair(left, right)

	mono := New(left, right, Options{Triangles: 10, Seed: 4})
	resMono, err := mono.Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	exact := New(left, right, Options{Triangles: 10, Seed: 4, NoMonotone: true})
	resExact, err := exact.Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if resMono.Diag.LatticeQueries >= resExact.Diag.LatticeQueries {
		t.Errorf("monotone should save queries: %d vs %d",
			resMono.Diag.LatticeQueries, resExact.Diag.LatticeQueries)
	}
	if resMono.Diag.LatticePredictions >= resExact.Diag.LatticePredictions {
		t.Errorf("monotone should save predictions: %d vs %d",
			resMono.Diag.LatticePredictions, resExact.Diag.LatticePredictions)
	}
	if resExact.Diag.LatticeQueries != resExact.Diag.ExpectedPredictions {
		t.Errorf("exact mode must ask about all nodes: %d vs %d",
			resExact.Diag.LatticeQueries, resExact.Diag.ExpectedPredictions)
	}
	// The name-only model is monotone, so the two runs agree on saliency.
	for ref, v := range resMono.Saliency.Scores {
		if ev := resExact.Saliency.Scores[ref]; v != ev {
			t.Errorf("saliency for %v differs: mono %v exact %v", ref, v, ev)
		}
	}
}

func TestEvaluateMonotonicityOnMonotoneModel(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 10, Seed: 5, EvaluateMonotonicity: true})
	res, err := e.Explain(nameModel{}, nonMatchPair(left, right))
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.WrongInferences != 0 {
		t.Errorf("name model is monotone; wrong inferences = %d", res.Diag.WrongInferences)
	}
	if res.Diag.SavedPredictions <= 0 {
		t.Error("expected savings")
	}
}

func TestDeterminism(t *testing.T) {
	left, right := buildTables()
	p := nonMatchPair(left, right)
	a, err := New(left, right, Options{Triangles: 8, Seed: 9}).Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(left, right, Options{Triangles: 8, Seed: 9}).Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	for ref, v := range a.Saliency.Scores {
		if b.Saliency.Scores[ref] != v {
			t.Fatalf("saliency differs for %v", ref)
		}
	}
	if len(a.Counterfactuals) != len(b.Counterfactuals) {
		t.Fatal("counterfactual counts differ")
	}
	if a.BestSet.Key() != b.BestSet.Key() {
		t.Fatal("A★ differs")
	}
}

func TestParallelismEquivalence(t *testing.T) {
	left, right := buildTables()
	p := nonMatchPair(left, right)
	serial, err := New(left, right, Options{Triangles: 10, Seed: 6}).Explain(twoAttrModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(left, right, Options{Triangles: 10, Seed: 6, Parallelism: 4}).Explain(twoAttrModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	for ref, v := range serial.Saliency.Scores {
		if parallel.Saliency.Scores[ref] != v {
			t.Fatalf("parallel result differs for %v", ref)
		}
	}
	if serial.BestSet.Key() != parallel.BestSet.Key() {
		t.Fatal("A★ differs under parallelism")
	}
}

func TestAugmentationTopsUpTriangles(t *testing.T) {
	// A tiny source cannot supply enough natural supports.
	ls := record.MustSchema("U", "name", "desc", "price")
	rs := record.MustSchema("V", "name", "desc", "price")
	left := record.NewTable(ls)
	right := record.NewTable(rs)
	left.MustAdd(record.MustNew("l0", ls, "alpha beta gamma", "one two three", "5"))
	left.MustAdd(record.MustNew("l1", ls, "delta epsilon zeta", "four five six", "6"))
	right.MustAdd(record.MustNew("r0", rs, "alpha beta gamma", "one two three", "5"))
	right.MustAdd(record.MustNew("r1", rs, "delta epsilon zeta", "four five six", "6"))

	u, _ := left.Get("l0")
	v, _ := right.Get("r1")
	p := record.Pair{Left: u, Right: v} // non-match under nameModel

	e := New(left, right, Options{Triangles: 12, Seed: 7})
	res, err := e.Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.AugmentedLeft == 0 && res.Diag.AugmentedRight == 0 {
		t.Errorf("expected augmented triangles, diag=%+v", res.Diag)
	}
	if res.Diag.LeftTriangles == 0 {
		t.Error("no left triangles at all")
	}
}

func TestDisableAugmentation(t *testing.T) {
	ls := record.MustSchema("U", "name", "desc", "price")
	rs := record.MustSchema("V", "name", "desc", "price")
	left := record.NewTable(ls)
	right := record.NewTable(rs)
	left.MustAdd(record.MustNew("l0", ls, "alpha beta", "x", "1"))
	left.MustAdd(record.MustNew("l1", ls, "gamma delta", "y", "2"))
	right.MustAdd(record.MustNew("r0", rs, "alpha beta", "x", "1"))
	right.MustAdd(record.MustNew("r1", rs, "gamma delta", "y", "2"))
	u, _ := left.Get("l0")
	v, _ := right.Get("r1")
	p := record.Pair{Left: u, Right: v}

	e := New(left, right, Options{Triangles: 50, Seed: 8, DisableAugmentation: true})
	res, err := e.Explain(nameModel{}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.AugmentedLeft != 0 || res.Diag.AugmentedRight != 0 {
		t.Error("augmentation should be disabled")
	}
	if res.Diag.LeftTriangles > 1 {
		t.Errorf("tiny source should cap natural triangles at 1, got %d", res.Diag.LeftTriangles)
	}
}

func TestForceAugmentation(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 10, Seed: 9, ForceAugmentation: true})
	res, err := e.Explain(nameModel{}, nonMatchPair(left, right))
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.LeftTriangles != res.Diag.AugmentedLeft {
		t.Errorf("forced augmentation: all %d left triangles should be augmented, got %d",
			res.Diag.LeftTriangles, res.Diag.AugmentedLeft)
	}
}

func TestDegenerateNoTriangles(t *testing.T) {
	// A constant model never flips, so no support records exist.
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 10, Seed: 10})
	constModel := constScore(0.9)
	res, err := e.Explain(constModel, matchPair(left, right))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterfactuals) != 0 {
		t.Error("constant model cannot have counterfactuals")
	}
	for ref, v := range res.Saliency.Scores {
		if v != 0 {
			t.Errorf("saliency %v = %v, want 0", ref, v)
		}
	}
	if res.Diag.Flips != 0 {
		t.Error("no flips expected")
	}
}

type constScore float64

func (constScore) Name() string                { return "const" }
func (c constScore) Score(record.Pair) float64 { return float64(c) }

func TestExplainNilPair(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{})
	if _, err := e.Explain(nameModel{}, record.Pair{}); err == nil {
		t.Error("nil records should error")
	}
}

func TestExplainerInterfaces(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 8, Seed: 11})
	var _ explain.SaliencyExplainer = e
	var _ explain.CounterfactualExplainer = e
	p := nonMatchPair(left, right)
	sal, err := e.ExplainSaliency(nameModel{}, p)
	if err != nil || sal == nil {
		t.Fatal("ExplainSaliency failed")
	}
	cfs, err := e.ExplainCounterfactuals(nameModel{}, p)
	if err != nil || len(cfs) == 0 {
		t.Fatal("ExplainCounterfactuals failed")
	}
	if e.Name() != "CERTA" {
		t.Error("Name wrong")
	}
}

func TestAttrSetKey(t *testing.T) {
	s := AttrSet{Side: record.Left, Attrs: []string{"price", "name"}}
	if s.Key() != "L:{name,price}" {
		t.Errorf("Key = %q", s.Key())
	}
}

func TestDiagnosticsAccounting(t *testing.T) {
	left, right := buildTables()
	e := New(left, right, Options{Triangles: 6, Seed: 12})
	res, err := e.Explain(nameModel{}, nonMatchPair(left, right))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diag
	if d.SavedPredictions != d.ExpectedPredictions-d.LatticePredictions {
		t.Errorf("saved %d != expected %d - performed %d", d.SavedPredictions, d.ExpectedPredictions, d.LatticePredictions)
	}
	// 3 attributes per side: each lattice expects 2^3-2 = 6 nodes.
	wantExpected := 6 * (d.LeftTriangles + d.RightTriangles)
	if d.ExpectedPredictions != wantExpected {
		t.Errorf("expected predictions %d, want %d", d.ExpectedPredictions, wantExpected)
	}
	if d.TriangleSearchCalls == 0 {
		t.Error("triangle search must cost model calls")
	}
}
