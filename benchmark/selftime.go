package main

import (
	"sort"

	"certa/internal/telemetry"
)

// addSelfTimes walks a span tree and adds each span's self time, in
// milliseconds, to acc under the span's name (the root is skipped). A
// span's self time is its duration minus the part of its interval that
// its children cover. Children may overlap — a scoring batch fans out
// over parallel shards, each with its own featurize and forward spans
// — so the covered part is the union of their intervals, not their sum.
func addSelfTimes(root *telemetry.WireSpan, acc map[string]float64) {
	for _, c := range root.Children {
		acc[c.Name] += selfMS(c)
		addSelfTimes(c, acc)
	}
}

func selfMS(sp *telemetry.WireSpan) float64 {
	lo, hi := sp.StartMS, sp.StartMS+sp.DurationMS
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(sp.Children))
	for _, c := range sp.Children {
		a, b := max(c.StartMS, lo), min(c.StartMS+c.DurationMS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return sp.DurationMS - covered
}
