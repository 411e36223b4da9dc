package embedding

import "testing"

func TestAbsDiffMulLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	AbsDiffMul(make([]float64, 2), make([]float64, 3), make([]float64, 3), make([]float64, 3))
}
