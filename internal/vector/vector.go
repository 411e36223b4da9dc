// Package vector implements the small amount of dense linear algebra the
// project needs: matrices in row-major layout, a Cholesky-based
// symmetric positive-definite solver and the weighted ridge regression
// built on it (inside LIME and Kernel SHAP), and the trapezoidal rule
// (internal/metrics' curve areas).
//
// The package is deliberately minimal — no BLAS, no panics beyond shape
// mismatches, everything float64.
package vector

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by solvers when the system matrix is singular
// or not positive definite beyond repair.
var ErrSingular = errors.New("vector: matrix is singular or not positive definite")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("vector: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// CholeskySolve solves A·x = b for symmetric positive-definite A,
// destroying neither input. If the factorization hits a non-positive
// pivot it retries with progressively larger diagonal jitter before
// giving up with ErrSingular — the ridge systems we solve are sometimes
// barely PD when perturbation samples coincide.
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("vector: CholeskySolve needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("vector: CholeskySolve shape mismatch %dx%d vs b length %d", a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	for _, jitter := range []float64{0, 1e-10, 1e-8, 1e-6, 1e-4} {
		l, ok := cholesky(a, jitter)
		if !ok {
			continue
		}
		// Forward substitution: L·y = b.
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s := b[i]
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * y[k]
			}
			y[i] = s / l.At(i, i)
		}
		// Back substitution: Lᵀ·x = y.
		x := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * x[k]
			}
			x[i] = s / l.At(i, i)
		}
		return x, nil
	}
	return nil, ErrSingular
}

// cholesky computes the lower-triangular factor of a+jitter·I, reporting
// failure instead of producing NaNs.
func cholesky(a *Matrix, jitter float64) (*Matrix, bool) {
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			if i == j {
				s += jitter
			}
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, false
				}
				l.Set(i, j, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, true
}

// WeightedRidge solves the weighted ridge regression
//
//	argmin_beta  Σ_i w_i (y_i - x_i·beta)² + lambda‖beta‖²
//
// where X is n×d (rows are samples). An intercept column, if wanted, must
// already be part of X. Returns the d coefficients.
func WeightedRidge(x *Matrix, y, w []float64, lambda float64) ([]float64, error) {
	n, d := x.Rows, x.Cols
	if len(y) != n || len(w) != n {
		return nil, fmt.Errorf("vector: WeightedRidge shape mismatch: X %dx%d, y %d, w %d", n, d, len(y), len(w))
	}
	// Normal equations: (XᵀWX + λI) beta = XᵀWy.
	xtx := NewMatrix(d, d)
	xty := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		wi := w[i]
		if wi == 0 {
			continue
		}
		for a := 0; a < d; a++ {
			va := wi * row[a]
			if va == 0 {
				continue
			}
			xty[a] += va * y[i]
			base := a * d
			for b := 0; b < d; b++ {
				xtx.Data[base+b] += va * row[b]
			}
		}
	}
	for a := 0; a < d; a++ {
		xtx.Data[a*d+a] += lambda
	}
	return CholeskySolve(xtx, xty)
}

// Trapezoid computes the area under the curve given by points (xs, ys)
// using the trapezoidal rule. The xs must be sorted ascending.
func Trapezoid(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("vector: Trapezoid length mismatch")
	}
	var area float64
	for i := 1; i < len(xs); i++ {
		area += (xs[i] - xs[i-1]) * (ys[i] + ys[i-1]) / 2
	}
	return area
}
