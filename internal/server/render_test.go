package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"certa/internal/core"
	"certa/internal/explain"
	"certa/internal/record"
	"certa/internal/telemetry"
)

// checkRender fails unless renderResponse returns json.Marshal's bytes
// for resp, or both reject it with the same error.
func checkRender(t testing.TB, resp *ExplainResponse) {
	t.Helper()
	want, werr := json.Marshal(resp)
	got, gerr := renderResponse(resp)
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("errors differ: renderer %v, json.Marshal %v", gerr, werr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("renderer differs from json.Marshal\n got: %s\nwant: %s", got, want)
	}
}

// The bits of FuzzRenderResponse's flags: each selects a shape that
// encoding/json treats specially.
const (
	fzNoResult          = 1 << iota // no result
	fzNoSaliency                    // a nil saliency
	fzNilLeft                       // a nil left record in the explained pair
	fzNilSchema                     // the right record has no schema
	fzNilValues                     // the left record's values and schema attrs are nil
	fzEmpty                         // empty, not nil, slices and maps
	fzNilMaps                       // nil saliency scores and sufficiency
	fzNoCounterfactuals             // no counterfactuals
	fzDiag                          // every omitempty diagnostic set
	fzTrace                         // a span tree
	fzError                         // an error message
	fzLeftBest                      // a left best set
)

// fuzzResponse builds a response whose strings are a, b and c, whose
// floats are x, y and z, and whose shape the flags choose. With flags
// fzDiag it is shaped like the repo-root golden response.
func fuzzResponse(a, b, c string, x, y, z float64, flags uint16) *ExplainResponse {
	has := func(f uint16) bool { return flags&f != 0 }
	schemaL := &record.Schema{Name: "Abt", Attrs: []string{"name", b}}
	schemaR := &record.Schema{Name: a, Attrs: []string{"name", "price"}}
	l := &record.Record{ID: "l1", Schema: schemaL, Values: []string{a, c}}
	r := &record.Record{ID: "r1", Schema: schemaR, Values: []string{b, "12"}}
	cfR := &record.Record{ID: "r1", Schema: schemaR, Values: []string{c, "12"}}
	cfL := &record.Record{ID: c, Schema: schemaL, Values: []string{b, a}}
	if has(fzNilValues) {
		l.Values = nil
		schemaL.Attrs = nil
	}
	if has(fzNilSchema) {
		r.Schema = nil
	}
	if has(fzEmpty) {
		cfL.Values = []string{}
	}
	if has(fzNilLeft) {
		l = nil
	}
	pair := record.Pair{Left: l, Right: r}

	res := &core.Result{
		Saliency: &explain.Saliency{
			Pair:       pair,
			Prediction: x,
			Scores: map[record.AttrRef]float64{
				{Side: record.Left, Attr: "name"}:  y,
				{Side: record.Left, Attr: b}:       z,
				{Side: record.Right, Attr: "name"}: x,
				{Side: record.Right, Attr: c}:      0.25,
			},
		},
		Counterfactuals: []explain.Counterfactual{
			explain.Counterfactual{
				Original:    pair,
				Pair:        record.Pair{Left: l, Right: cfR},
				Changed:     []record.AttrRef{{Side: record.Right, Attr: "name"}, {Side: record.Right, Attr: a}},
				Score:       y,
				Probability: z,
			}.WithOriginalScore(x),
			explain.Counterfactual{
				Original:    pair,
				Pair:        record.Pair{Left: cfL, Right: r},
				Score:       z,
				Probability: 1,
			}.WithOriginalScore(x),
		},
		BestSet:         core.AttrSet{Side: record.Right, Attrs: []string{"name", c}},
		BestSufficiency: z,
		Sufficiency:     map[string]float64{"R:{name}": z, a: x, b: y},
		Diag: core.Diagnostics{
			LeftTriangles: 2, RightTriangles: 2, LatticeQueries: 12,
			LatticePredictions: 9, ExpectedPredictions: 8, SavedPredictions: -1,
			TriangleSearchCalls: 7, Flips: 3, ModelCalls: 17, BatchCalls: 5,
			CacheLookups: 23, CacheHits: 6, BudgetSpent: 17, Completeness: y,
		},
	}
	if has(fzLeftBest) {
		res.BestSet.Side = record.Left
	}
	if has(fzEmpty) {
		res.Saliency.Scores = map[record.AttrRef]float64{}
		res.Counterfactuals[1].Changed = []record.AttrRef{}
		res.BestSet.Attrs = []string{}
		res.Sufficiency = map[string]float64{}
	}
	if has(fzNilMaps) {
		res.Saliency.Scores = nil
		res.Sufficiency = nil
	}
	if has(fzNoCounterfactuals) {
		res.Counterfactuals = nil
		if has(fzEmpty) {
			res.Counterfactuals = []explain.Counterfactual{}
		}
	}
	if has(fzDiag) {
		d := &res.Diag
		d.AugmentedLeft, d.AugmentedRight, d.WrongInferences = 1, 3, 4
		d.PrunedQueries, d.PruneLevels = 5, 6
		d.Truncated, d.TruncatedBy = true, c
	}
	if has(fzNoSaliency) {
		res.Saliency = nil
	}
	resp := &ExplainResponse{Benchmark: a, PairKey: b + "|" + c, Result: res}
	if has(fzNoResult) {
		resp.Result = nil
	}
	if has(fzError) {
		resp.Error = c
	}
	if has(fzTrace) {
		resp.Trace = &telemetry.WireSpan{Name: a, DurationMS: x, Items: 2, Children: []*telemetry.WireSpan{
			{Name: b, StartMS: y, DurationMS: z},
		}}
	}
	return resp
}

// FuzzRenderResponse checks the renderer against json.Marshal on
// responses built from fuzzed strings, floats and shape flags: the
// bytes are equal, or both reject a NaN or infinite float with the same
// error. It first checks the repo-root golden response itself; the
// seeds cover what encoding/json escapes or formats specially and every
// nil-versus-empty choice.
func FuzzRenderResponse(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "explain_response_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var resp ExplainResponse
	if err := json.Unmarshal(golden, &resp); err != nil {
		f.Fatal(err)
	}
	checkRender(f, &resp)

	f.Add("acme widget", "acme widget deluxe", "other thing", 0.875, 0.125, 0.5, uint16(fzDiag))
	f.Add("<b>&amp;</b>", "a<b", "x>y&z", 0.5, 1.0, 0.0, uint16(fzDiag|fzTrace))
	f.Add("line\xe2\x80\xa8sep", "para\xe2\x80\xa9sep", "\xe2\x80\xa8", 0.1, 0.2, 0.3, uint16(0))
	f.Add("bad\xff", "cut\xe2\x80", "\xc3(\xfe", 0.1, 0.2, 0.3, uint16(fzError))
	f.Add("\x00\x01\x1f\x7f", "\b\f\n\r\t", "q\"b\\s/", 0.1, 0.2, 0.3, uint16(fzDiag))
	f.Add("tiny", "big", "zero", 1e-7, 1e21, math.Copysign(0, -1), uint16(0))
	f.Add("min", "edge", "neg", 5e-324, 1e-6, -1e-7, uint16(fzLeftBest))
	f.Add("huge", "just", "below", 1.5e300, 999999999999999999999.0, 123456789e-15, uint16(0))
	f.Add("empty", "", "", 0.5, 0.5, 0.5, uint16(fzEmpty))
	f.Add("empty", "none", "", 0.5, 0.5, 0.5, uint16(fzEmpty|fzNoCounterfactuals))
	f.Add("nils", "x", "y", 0.5, 0.5, 0.5, uint16(fzNilMaps|fzNoCounterfactuals|fzNilValues))
	f.Add("nil saliency", "x", "y", 0.5, 0.5, 0.5, uint16(fzNoSaliency))
	f.Add("nil records", "x", "y", 0.5, 0.5, 0.5, uint16(fzNilLeft|fzNilSchema))
	f.Add("no result", "x", "failed", 0.5, 0.5, 0.5, uint16(fzNoResult|fzError))
	f.Add("traced", "span", "child", 2.5, 0.25, 1e-9, uint16(fzTrace))
	f.Add("nan", "x", "y", math.NaN(), 0.5, 0.5, uint16(0))
	f.Add("inf", "x", "y", 0.5, math.Inf(1), 0.5, uint16(fzNoSaliency))
	f.Add("-inf", "x", "y", 0.5, 0.5, math.Inf(-1), uint16(fzTrace))
	f.Fuzz(func(t *testing.T, a, b, c string, x, y, z float64, flags uint16) {
		checkRender(t, fuzzResponse(a, b, c, x, y, z, flags))
	})
}

// TestRenderCoversEveryWireField sets every exported field of
// ExplainResponse and of every struct under it (Result, Saliency,
// Counterfactual, Pair, Record, Schema, AttrSet, Diagnostics, WireSpan)
// by reflection, and compares the renderer with json.Marshal: a wire
// field added to any of them fails here until the renderer writes it.
// It then leaves each field zero in turn, so a field written without
// its omitempty, or a nil written as empty, fails too.
func TestRenderCoversEveryWireField(t *testing.T) {
	var full ExplainResponse
	paths := fillWire(reflect.ValueOf(&full).Elem(), "", "", new(int), map[reflect.Type]bool{})
	if len(paths) < 50 {
		t.Fatalf("filled only %d fields", len(paths))
	}
	checkRender(t, &full)
	for _, zero := range paths {
		t.Run(zero, func(t *testing.T) {
			var resp ExplainResponse
			fillWire(reflect.ValueOf(&resp).Elem(), "", zero, new(int), map[reflect.Type]bool{})
			checkRender(t, &resp)
		})
	}
}

// fillWire sets v and everything under it to distinct non-zero values,
// except the struct field at path zero, which it leaves zero, and
// returns the path of every struct field it met. Slices and maps get
// one element. A pointer to a struct already being filled (WireSpan's
// children) stays nil, so recursive types end.
func fillWire(v reflect.Value, path, zero string, n *int, open map[reflect.Type]bool) []string {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d<&>", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		if open[v.Type().Elem()] {
			return nil
		}
		v.Set(reflect.New(v.Type().Elem()))
		return fillWire(v.Elem(), path, zero, n, open)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return fillWire(v.Index(0), path+"[]", zero, n, open)
	case reflect.Map:
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		paths := fillWire(k, path+"{key}", zero, n, open)
		paths = append(paths, fillWire(e, path+"{}", zero, n, open)...)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
		return paths
	case reflect.Struct:
		typ := v.Type()
		open[typ] = true
		defer delete(open, typ)
		var paths []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			p := path + "." + f.Name
			paths = append(paths, p)
			if p != zero {
				paths = append(paths, fillWire(v.Field(i), p, zero, n, open)...)
			}
		}
		if cf, ok := v.Addr().Interface().(*explain.Counterfactual); ok {
			*cf = cf.WithOriginalScore(float64(*n) + 0.5)
		}
		return paths
	default:
		panic(fmt.Sprintf("fillWire: no filler for %s at %s", v.Type(), path))
	}
	return nil
}

// TestRenderAllocs pins the renderer's one allocation per body, the
// body it copies out of its pooled buffer, on engine-made responses
// (the toy backend's first pairs, shaped as the server shapes them)
// that it must also render as json.Marshal does.
func TestRenderAllocs(t *testing.T) {
	left, right := testSources(24)
	e := core.New(left, right, core.Options{Triangles: 8, Seed: 3})
	var most *ExplainResponse
	for i := 0; i < 4; i++ {
		p := record.Pair{Left: left.Records[i], Right: right.Records[i]}
		res, err := e.ExplainContext(context.Background(), overlapModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1} {
			resp := &ExplainResponse{Benchmark: "toy", PairKey: p.Key(), Result: shapeTopK(res, k)}
			checkRender(t, resp)
			if most == nil || len(resp.Result.Counterfactuals) > len(most.Result.Counterfactuals) {
				most = resp
			}
		}
	}
	if len(most.Result.Counterfactuals) < 2 {
		t.Fatalf("fixture explains with %d counterfactuals, want several", len(most.Result.Counterfactuals))
	}
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts at random; alloc counts are unreliable")
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := renderResponse(most); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("rendering a body allocates %.0f objects, want 1 (the body)", got)
	}
}
