package embedding

// AbsDiffMul writes diff[i] = |a[i]-b[i]| and prod[i] = a[i]*b[i] for
// every element — the inner loop of the DeepER featurizer (element-wise
// absolute difference and Hadamard product of the two record
// embeddings). The absolute value negates only where a[i]-b[i] < 0, so
// a -0 difference and a NaN keep their bits. All four slices must have
// equal length.
func AbsDiffMul(diff, prod, a, b []float64) {
	n := len(a)
	if len(b) != n || len(diff) != n || len(prod) != n {
		panic("embedding: AbsDiffMul slice lengths differ")
	}
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		diff[i] = d
		prod[i] = a[i] * b[i]
	}
}
