package main

import (
	"math"
	"testing"

	"certa/internal/telemetry"
)

// TestSelfTimeUnionsOverlappingChildren is a scoring batch fanned out
// over two parallel shards: the model span (0–10 ms) holds two
// featurize spans that overlap (1–6 and 2–8 ms) and a forward span
// (7–9 ms) that overlaps the second. The children cover 1–9 ms, so the
// model's self time is 2 ms; subtracting their summed durations
// (5+6+2 = 13 ms) would give −3.
func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	model := &telemetry.WireSpan{Name: "model", StartMS: 0, DurationMS: 10, Children: []*telemetry.WireSpan{
		{Name: "featurize", StartMS: 1, DurationMS: 5},
		{Name: "featurize", StartMS: 2, DurationMS: 6},
		{Name: "forward", StartMS: 7, DurationMS: 2},
	}}
	root := &telemetry.WireSpan{Name: "explain", DurationMS: 12, Children: []*telemetry.WireSpan{model}}
	self := map[string]float64{}
	addSelfTimes(root, self)
	for name, want := range map[string]float64{"model": 2, "featurize": 11, "forward": 2} {
		if math.Abs(self[name]-want) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", name, self[name], want)
		}
	}
	if _, ok := self["explain"]; ok {
		t.Error("the root has no self time of its own")
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	// A child recorded as running past its parent's end (an unended
	// span snapshotted later) covers only the parent's interval.
	sp := &telemetry.WireSpan{Name: "triangles", StartMS: 5, DurationMS: 10, Children: []*telemetry.WireSpan{
		{Name: "retrieval/natural", StartMS: 3, DurationMS: 4},    // 5–7 inside
		{Name: "retrieval/augmented", StartMS: 12, DurationMS: 9}, // 12–15 inside
	}}
	if got := selfMS(sp); math.Abs(got-5) > 1e-9 {
		t.Errorf("self time = %v ms, want 5", got)
	}
}
