package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pct    int
		want      float64
		supported bool
	}{
		{100, 90, 90, true},   // exactly 10 beyond
		{99, 90, 90, false},   // 9 beyond
		{200, 95, 190, true},  // exactly 10 beyond
		{199, 95, 190, false}, // 9 beyond
		{20, 50, 10, true},
		{19, 50, 10, false},
		{8, 90, 8, false},
		{1, 50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.pct)
		if got != tc.want || ok != tc.supported {
			t.Errorf("p%d of %d samples = %v (supported %v), want %v (%v)", tc.pct, tc.n, got, ok, tc.want, tc.supported)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("an empty sample supports no percentile")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{10, 12, 11, 13, 9, 30, 11.5}, 10, 13},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// okStep is a step at 10 req/s over one second whose requests all
// finished within 20 ms of their due times.
func okStep() step {
	var st step
	st.duration = time.Second
	for i := 0; i < 10; i++ {
		due := time.Duration(i) * 100 * time.Millisecond
		st.samples = append(st.samples, sample{due: due, sent: due, done: due + 20*time.Millisecond})
	}
	return st
}

func TestSLOStepRule(t *testing.T) {
	const limit = 100.0
	if ok, why := meetsSLO(summarize(okStep()), limit); !ok {
		t.Fatalf("a step well inside the limit fails: %s", why)
	}

	slow := okStep() // two slow requests of ten put p90 over the limit
	for _, i := range []int{8, 9} {
		slow.samples[i].done = slow.samples[i].due + 150*time.Millisecond
	}
	if ok, _ := meetsSLO(summarize(slow), limit); ok {
		t.Error("p90 over the limit passes")
	}

	failed := okStep()
	failed.samples[3].err = errTest
	if ok, _ := meetsSLO(summarize(failed), limit); ok {
		t.Error("a step with a failed request passes")
	}

	// A backlog: every request individually inside the limit, but the
	// schedule overran. The last request is due at 900 ms and finishes
	// at 1150 ms, past the 1000 ms schedule plus the 100 ms limit.
	// Its latency from due is 250 ms, so make p90 blind to it by
	// giving the step enough fast samples.
	backlog := okStep()
	for i := 0; i < 90; i++ {
		backlog.samples = append(backlog.samples, sample{done: 10 * time.Millisecond})
	}
	backlog.samples[9].done = 1150 * time.Millisecond
	st := summarize(backlog)
	if st.p90 > limit {
		t.Fatalf("test set-up: p90 %v should be within the limit", st.p90)
	}
	if ok, _ := meetsSLO(st, limit); ok {
		t.Error("a step that finished past its schedule plus the limit passes")
	}

	rates := []float64{40, 80, 160}
	pass, fail := summarize(okStep()), summarize(slow)
	for _, tc := range []struct {
		stats []stepStats
		want  float64
	}{
		{[]stepStats{pass, pass, pass}, 160},
		{[]stepStats{pass, fail}, 40},
		{[]stepStats{pass, fail, pass}, 40}, // the ladder stops at the first failing step
		{[]stepStats{fail}, 0},
	} {
		if got := sloRate(rates, tc.stats, limit); got != tc.want {
			t.Errorf("sloRate = %v, want %v", got, tc.want)
		}
	}
}

type testError string

func (e testError) Error() string { return string(e) }

const errTest = testError("refused")
