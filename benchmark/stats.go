package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is the sample rule for reported percentiles: a percentile
// is reported only when at least this many samples lie beyond it, so
// p90 needs 100 samples and p50 needs 20.
const minBeyond = 10

// minSamples is the fewest latency samples a full-profile run takes
// for p90, the percentile every workload reports: minBeyond·100/(100−90).
const minSamples = 100

// percentile returns the nearest-rank pct-th percentile of xs (which
// it sorts) and whether the sample supports it under minBeyond. The
// rank is computed in integers so p90 of 100 samples is the 90th value
// with exactly 10 beyond, free of floating-point rounding.
func percentile(xs []float64, pct int) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	n := len(xs)
	rank := (pct*n + 99) / 100 // ceil(pct·n/100), 1-based
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], n-rank >= minBeyond
}

// reportSamples states on standard error how many latency samples a
// run's p50 and p90 rest on, and whether they support p90.
func reportSamples(workload string, n int, supported bool) {
	if supported {
		warnf("%s: p50 and p90 over %d samples", workload, n)
	} else {
		warnf("%s: p50 and p90 over %d samples, too few for p90", workload, n)
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), the
// rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// step is one open-loop stage of a ladder (or one closed-loop phase,
// whose duration is zero): the length of its schedule and what each
// request saw.
type step struct {
	duration time.Duration // requests × interval
	samples  []sample
}

// stepStats are the figures of one step; latencies are in milliseconds
// from each request's due time.
type stepStats struct {
	p50, p90     float64
	supported    bool // the sample supports p90 under minBeyond
	successes    int
	failed       int
	lastDoneMS   float64 // latest completion, from the step's start
	lateMaxMS    float64 // how late the generator sent, at worst
	clientMeanMS float64 // mean latency from the moment of sending
	scheduleMS   float64
}

func summarize(st step) stepStats {
	out := stepStats{scheduleMS: ms(st.duration)}
	var lat []float64
	var sumClient float64
	for _, s := range st.samples {
		out.lastDoneMS = max(out.lastDoneMS, ms(s.done))
		out.lateMaxMS = max(out.lateMaxMS, ms(s.sent-s.due))
		if s.err != nil {
			out.failed++
			continue
		}
		out.successes++
		lat = append(lat, ms(s.done-s.due))
		sumClient += ms(s.done - s.sent)
	}
	out.clientMeanMS = ratio(sumClient, float64(out.successes))
	out.p50, _ = percentile(lat, 50)
	out.p90, out.supported = percentile(lat, 90)
	return out
}

// meetsSLO is the ladder's pass rule for one step: p90 within the
// latency limit, no failed or refused request, and every request done
// within the schedule plus the limit — a step that finishes late has a
// growing backlog even when its percentiles look fine.
func meetsSLO(st stepStats, limitMS float64) (bool, string) {
	switch {
	case st.failed > 0:
		return false, fmt.Sprintf("%d failed", st.failed)
	case st.p90 > limitMS:
		return false, fmt.Sprintf("p90 %.1fms > %.0fms", st.p90, limitMS)
	case st.lastDoneMS > st.scheduleMS+limitMS:
		return false, fmt.Sprintf("backlog: last done at %.0fms, schedule %.0fms + limit", st.lastDoneMS, st.scheduleMS)
	}
	return true, ""
}

// sloRate walks a ladder in order and returns the highest rate whose
// step meets the SLO, stopping at the first step that does not (0 when
// even the first step fails).
func sloRate(rates []float64, stats []stepStats, limitMS float64) float64 {
	best := 0.0
	for i, st := range stats {
		if ok, _ := meetsSLO(st, limitMS); !ok {
			break
		}
		best = rates[i]
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
