package vector

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 2)
	m.Set(1, 1, 3)
	if m.At(0, 2) != 2 || m.At(1, 1) != 3 {
		t.Error("Set/At roundtrip failed")
	}
}

func TestCholeskySolve(t *testing.T) {
	// A = [[4,2],[2,3]], b = [2,1] -> x = [0.5, 0].
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{4, 2, 2, 3})
	x, err := CholeskySolve(a, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x[0], 0.5, 1e-9) || !approx(x[1], 0, 1e-9) {
		t.Errorf("solution = %v", x)
	}
}

func TestCholeskySolveRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		// Build SPD as GᵀG + I.
		g := NewMatrix(n, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += g.At(k, i) * g.At(k, j)
				}
				if i == j {
					s++
				}
				a.Set(i, j, s)
			}
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		// b = A·want.
		b := make([]float64, n)
		for i := range b {
			for j, x := range want {
				b[i] += a.At(i, j) * x
			}
		}
		got, err := CholeskySolve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if !approx(got[i], want[i], 1e-6) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskySolveSingular(t *testing.T) {
	a := NewMatrix(2, 2) // all zeros: singular even with jitter? jitter makes it PD.
	// A strongly indefinite matrix cannot be fixed by tiny jitter.
	copy(a.Data, []float64{0, 1, 1, 0})
	if _, err := CholeskySolve(a, []float64{1, 1}); err == nil {
		t.Error("expected error for indefinite matrix")
	}
}

func TestCholeskySolveShapeErrors(t *testing.T) {
	if _, err := CholeskySolve(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Error("expected error for non-square matrix")
	}
	if _, err := CholeskySolve(NewMatrix(2, 2), []float64{1}); err == nil {
		t.Error("expected error for b length mismatch")
	}
}

func TestWeightedRidgeRecoversLine(t *testing.T) {
	// y = 3x + 1 with intercept column; ridge with tiny lambda should
	// recover the coefficients closely.
	n := 50
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	w := make([]float64, n)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		xi := rng.Float64()*10 - 5
		x.Set(i, 0, xi)
		x.Set(i, 1, 1)
		y[i] = 3*xi + 1
		w[i] = 1
	}
	beta, err := WeightedRidge(x, y, w, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(beta[0], 3, 1e-3) || !approx(beta[1], 1, 1e-3) {
		t.Errorf("beta = %v, want [3 1]", beta)
	}
}

func TestWeightedRidgeHonorsWeights(t *testing.T) {
	// Two clusters with conflicting slopes; weights select the first.
	x := NewMatrix(4, 1)
	x.Data = []float64{1, 2, 1, 2}
	y := []float64{2, 4, -2, -4} // slope +2 vs slope -2
	wPos := []float64{1, 1, 0, 0}
	beta, err := WeightedRidge(x, y, wPos, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(beta[0], 2, 1e-4) {
		t.Errorf("weighted slope = %v, want 2", beta[0])
	}
}

func TestWeightedRidgeShapeError(t *testing.T) {
	if _, err := WeightedRidge(NewMatrix(2, 1), []float64{1}, []float64{1, 1}, 0.1); err == nil {
		t.Error("expected shape error")
	}
}

func TestTrapezoid(t *testing.T) {
	// Area under y = x on [0,1] is 0.5.
	xs := []float64{0, 0.5, 1}
	ys := []float64{0, 0.5, 1}
	if got := Trapezoid(xs, ys); !approx(got, 0.5, 1e-12) {
		t.Errorf("Trapezoid = %v", got)
	}
	// Constant function.
	if got := Trapezoid([]float64{0, 2}, []float64{3, 3}); !approx(got, 6, 1e-12) {
		t.Errorf("Trapezoid const = %v", got)
	}
}
