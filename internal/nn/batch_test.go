package nn

import (
	"math/rand"
	"sync"
	"testing"
)

// randomNet builds a random architecture from the generator's stream:
// 1–3 Dense hidden layers of width 1–17 with mixed ReLU/Tanh activations
// and the occasional Dropout, ending in the single-logit output layer —
// the same layer vocabulary NewMLP and UnmarshalBinary can produce.
func randomNet(rng *rand.Rand, in int) *Network {
	var layers []Layer
	prev := in
	for h := 0; h < 1+rng.Intn(3); h++ {
		w := 1 + rng.Intn(17)
		layers = append(layers, NewDense(prev, w, rng))
		if rng.Intn(2) == 0 {
			layers = append(layers, ReLU{})
		} else {
			layers = append(layers, Tanh{})
		}
		if rng.Intn(3) == 0 {
			layers = append(layers, &Dropout{Rate: 0.3})
		}
		prev = w
	}
	layers = append(layers, NewDense(prev, 1, rng))
	return &Network{Layers: layers}
}

func randomRows(rng *rand.Rand, rows, width int) [][]float64 {
	out := make([][]float64, rows)
	for r := range out {
		row := make([]float64, width)
		for i := range row {
			row[i] = rng.NormFloat64() * 3
		}
		out[r] = row
	}
	return out
}

// PredictBaseline is the historical row-at-a-time forward pass: the
// allocating Apply chain the batched engine replaced. It is the
// bit-for-bit reference the batch kernels are property-tested against
// and the "before" side of BenchmarkPredictBatch.
func (n *Network) PredictBaseline(x []float64) float64 {
	return sigmoid(n.Logit(x))
}

// TestPredictBatchBitIdentical is the forward-pass equivalence property
// test: over random network shapes and inputs, the blocked batch kernel
// (reused arena, register blocking) must agree bit-for-bit — not within
// epsilon — with the scalar reference path, including batch sizes that
// don't fill a register block (0, 1, odd) and sizes far beyond it.
func TestPredictBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 2, 3, denseRowBlock - 1, denseRowBlock, denseRowBlock + 1, 7, 13, 64, 129}
	for trial := 0; trial < 50; trial++ {
		in := 1 + rng.Intn(40)
		net := randomNet(rng, in)
		for _, rows := range sizes {
			xs := randomRows(rng, rows, in)
			got := net.PredictBatch(xs)
			if len(got) != rows {
				t.Fatalf("trial %d rows %d: PredictBatch returned %d scores", trial, rows, len(got))
			}
			flat := make([]float64, 0, rows*in)
			for _, x := range xs {
				flat = append(flat, x...)
			}
			gotFlat := net.PredictBatchFlat(flat, rows)
			for r, x := range xs {
				want := net.PredictBaseline(x)
				if got[r] != want {
					t.Fatalf("trial %d rows %d row %d: PredictBatch %v != PredictBaseline %v", trial, rows, r, got[r], want)
				}
				if gotFlat[r] != want {
					t.Fatalf("trial %d rows %d row %d: PredictBatchFlat %v != PredictBaseline %v", trial, rows, r, gotFlat[r], want)
				}
				if p := net.Predict(x); p != want {
					t.Fatalf("trial %d row %d: Predict %v != PredictBaseline %v", trial, r, p, want)
				}
			}
		}
	}
}

// TestPredictBatchConcurrent drives the pooled arena path from many
// goroutines at once (run under -race in CI): concurrent batches over
// the same network must neither race nor perturb each other's results.
func TestPredictBatchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const in = 24
	net := NewMLP(in, []int{36, 18}, 0, rng)
	xs := randomRows(rng, 61, in)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = net.PredictBaseline(x)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Interleave batch shapes so goroutines exchange differently
			// sized arenas through the pool.
			for iter := 0; iter < 30; iter++ {
				n := 1 + (g+iter)%len(xs)
				got := net.PredictBatch(xs[:n])
				for i := range got {
					if got[i] != want[i] {
						errs <- "concurrent PredictBatch diverged from scalar path"
						return
					}
				}
				if p := net.Predict(xs[iter%len(xs)]); p != want[iter%len(xs)] {
					errs <- "concurrent Predict diverged from scalar path"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPredictAllocs gates the allocation fix on both scoring paths: the
// scalar Predict must be allocation-free in steady state (pooled arena),
// and the batched paths may allocate only their caller-facing result
// slice.
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts at random; alloc counts are unreliable")
	}
	rng := rand.New(rand.NewSource(3))
	const in = 32
	net := NewMLP(in, []int{64, 32}, 0, rng)
	x := make([]float64, in)
	flat := make([]float64, 16*in)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	copy(x, flat)

	// Warm the arena pool so the measurement sees the steady state.
	net.Predict(x)
	net.PredictBatchFlat(flat, 16)

	if got := testing.AllocsPerRun(100, func() { net.Predict(x) }); got > 0 {
		t.Errorf("Predict allocates %.1f objects per call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { net.PredictBatchFlat(flat, 16) }); got > 1 {
		t.Errorf("PredictBatchFlat allocates %.1f objects per call, want <=1 (result slice)", got)
	}
}

func BenchmarkPredictBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(32, []int{64, 32}, 0, rng)
	x := make([]float64, 32)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.PredictBaseline(x)
	}
}

// BenchmarkPredictBatch reports per-row cost of the blocked batch path
// over a perturbation-sized batch; compare per-row ns/op and allocs/op
// against BenchmarkPredictBaseline for the forward-pass speedup.
func BenchmarkPredictBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, in = 256, 32
	net := NewMLP(in, []int{64, 32}, 0, rng)
	flat := make([]float64, rows*in)
	for i := range flat {
		flat[i] = rng.Float64()
	}
	net.PredictBatchFlat(flat, rows) // warm the arena pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.PredictBatchFlat(flat, rows)
	}
}
