package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDenseApplyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	y := d.Apply([]float64{1, 2, 3})
	if len(y) != 2 {
		t.Fatalf("output width = %d, want 2", len(y))
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	d.Apply([]float64{1})
}

func TestDenseLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 1, rng)
	copy(d.w.w, []float64{2, -1})
	d.b.w[0] = 0.5
	y := d.Apply([]float64{3, 4})
	if got, want := y[0], 2*3-4+0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Dense output = %v, want %v", got, want)
	}
}

func TestReLU(t *testing.T) {
	y := ReLU{}.Apply([]float64{-1, 0, 2})
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Errorf("ReLU = %v", y)
	}
	g := ReLU{}.backward([]float64{-1, 0, 2}, []float64{5, 5, 5})
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Errorf("ReLU grad = %v", g)
	}
}

func TestTanh(t *testing.T) {
	y := Tanh{}.Apply([]float64{0, 1000})
	if y[0] != 0 || math.Abs(y[1]-1) > 1e-9 {
		t.Errorf("Tanh = %v", y)
	}
}

func TestDropoutInferenceIdentity(t *testing.T) {
	d := &Dropout{Rate: 0.5}
	x := []float64{1, 2, 3}
	y := d.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Error("Dropout.Apply should be identity at inference")
		}
	}
}

func TestDropoutTrainMask(t *testing.T) {
	d := &Dropout{Rate: 0.5}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 1
	}
	y := d.forwardTrain(x, rng)
	zeros := 0
	for _, v := range y {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Errorf("dropout zeroed %d/1000, want ~500", zeros)
	}
	// Kept units are scaled by 1/keep.
	for _, v := range y {
		if v != 0 && math.Abs(v-2) > 1e-12 {
			t.Errorf("kept unit = %v, want 2 (inverted dropout)", v)
		}
	}
}

// Gradient check: numerical vs analytical gradients on a small MLP.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewMLP(3, []int{4}, 0, rng)
	x := []float64{0.5, -1.2, 2.0}
	y := 1.0

	lossAt := func() float64 {
		z := net.Logit(x)
		return math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
	}

	net.zeroGrads()
	net.trainStep(x, y, rng)

	const eps = 1e-6
	for pi, p := range net.allParams() {
		for i := range p.w {
			orig := p.w[i]
			p.w[i] = orig + eps
			up := lossAt()
			p.w[i] = orig - eps
			down := lossAt()
			p.w[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-p.g[i]) > 1e-4 {
				t.Fatalf("param %d index %d: numeric %v vs analytic %v", pi, i, numeric, p.g[i])
			}
		}
	}
}

func TestPredictRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewMLP(4, []int{8, 4}, 0, rng)
	f := func(a, b, c, d float64) bool {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := net.Predict([]float64{clip(a), clip(b), clip(c), clip(d)})
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clip(v float64) float64 {
	if v > 10 {
		return 10
	}
	if v < -10 {
		return -10
	}
	return v
}

func TestTrainLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewMLP(2, []int{8}, 0, rng)
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a, b := float64(i%2), float64((i/2)%2)
		x = append(x, []float64{a, b})
		if (a > 0.5) != (b > 0.5) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	res, err := net.Train(x, y, nil, nil, TrainConfig{
		Epochs: 300, BatchSize: 8, LearningRate: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := net.Accuracy(x, y); acc < 0.99 {
		t.Errorf("XOR accuracy = %v after %d epochs (loss %v)", acc, res.Epochs, res.TrainLoss)
	}
}

func TestTrainEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewMLP(2, []int{4}, 0, rng)
	// Linearly separable data converges quickly; early stopping should
	// trigger well before the epoch limit.
	var x [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		a := float64(i) / 100
		x = append(x, []float64{a, 1 - a})
		if a > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	res, err := net.Train(x, y, x, y, TrainConfig{
		Epochs: 500, BatchSize: 16, LearningRate: 0.05, Patience: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped && res.Epochs == 500 {
		t.Log("early stopping did not trigger (acceptable if loss kept improving)")
	}
	if net.Accuracy(x, y) < 0.95 {
		t.Errorf("accuracy = %v", net.Accuracy(x, y))
	}
}

func TestTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(2, []int{2}, 0, rng)
	if _, err := net.Train(nil, nil, nil, nil, TrainConfig{}); err == nil {
		t.Error("empty training data should error")
	}
	if _, err := net.Train([][]float64{{1, 2}}, []float64{1, 0}, nil, nil, TrainConfig{}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewMLP(3, []int{5, 4}, 0.1, rng)
	x := []float64{0.1, -0.5, 0.9}
	want := net.Predict(x)

	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Network
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got := back.Predict(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("roundtrip prediction %v, want %v", got, want)
	}
	if len(back.Layers) != len(net.Layers) {
		t.Errorf("layer count %d, want %d", len(back.Layers), len(net.Layers))
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	var net Network
	if err := net.UnmarshalBinary([]byte("not gob")); err == nil {
		t.Error("garbage should fail to decode")
	}
}

func TestLossDecreasesDuringTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := NewMLP(2, []int{6}, 0, rng)
	var x [][]float64
	var y []float64
	r2 := rand.New(rand.NewSource(32))
	for i := 0; i < 150; i++ {
		a, b := r2.Float64(), r2.Float64()
		x = append(x, []float64{a, b})
		if a+b > 1 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	before := net.Loss(x, y)
	if _, err := net.Train(x, y, nil, nil, TrainConfig{Epochs: 50, BatchSize: 16, LearningRate: 0.02, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	after := net.Loss(x, y)
	if after >= before {
		t.Errorf("loss did not decrease: %v -> %v", before, after)
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := NewMLP(32, []int{64, 32}, 0, rng)
	x := make([]float64, 32)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 256; i++ {
		row := make([]float64, 16)
		for j := range row {
			row[j] = rng.Float64()
		}
		x = append(x, row)
		y = append(y, float64(i%2))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net := NewMLP(16, []int{32}, 0, rand.New(rand.NewSource(2)))
		_, _ = net.Train(x, y, nil, nil, TrainConfig{Epochs: 1, BatchSize: 32, LearningRate: 0.01, Seed: 3})
	}
}

// TestUnmarshalRejectsMalformedState: gob-valid states that
// MarshalBinary never writes fail to decode with an error instead of
// panicking in UnmarshalBinary or at the restored network's first
// prediction.
func TestUnmarshalRejectsMalformedState(t *testing.T) {
	// valid is a 2→3→1 network: dense, relu, dropout, dense.
	valid := func() netState {
		return netState{
			Kinds:  []string{"dense", "relu", "dropout", "dense"},
			Ins:    []int{2, 0, 0, 3},
			Outs:   []int{3, 0, 0, 1},
			Rates:  []float64{0, 0, 0.1, 0},
			Tensor: [][]float64{make([]float64, 6), make([]float64, 3), make([]float64, 3), make([]float64, 1)},
		}
	}
	cases := []struct {
		name   string
		mutate func(*netState)
	}{
		{"missing bias tensor", func(st *netState) { st.Tensor = st.Tensor[:3] }},
		{"missing dense tensors", func(st *netState) { st.Tensor = st.Tensor[:2] }},
		{"extra tensor", func(st *netState) { st.Tensor = append(st.Tensor, []float64{0}) }},
		{"ins shorter than kinds", func(st *netState) { st.Ins = st.Ins[:1] }},
		{"outs shorter than kinds", func(st *netState) { st.Outs = st.Outs[:3] }},
		{"dropout without a rate", func(st *netState) { st.Rates = st.Rates[:2] }},
		{"weights misshapen", func(st *netState) { st.Tensor[0] = make([]float64, 5) }},
		{"bias misshapen", func(st *netState) { st.Tensor[1] = make([]float64, 2) }},
		{"widths do not chain", func(st *netState) {
			st.Ins[3] = 4
			st.Tensor[2] = make([]float64, 4)
		}},
		{"output wider than one", func(st *netState) {
			st.Outs[3] = 2
			st.Tensor[2], st.Tensor[3] = make([]float64, 6), make([]float64, 2)
		}},
		{"no dense layer", func(st *netState) {
			*st = netState{Kinds: []string{"relu"}, Ins: []int{0}, Outs: []int{0}, Rates: []float64{0}}
		}},
		{"zero width", func(st *netState) {
			st.Ins[0], st.Outs[0] = 0, 3
			st.Tensor[0] = nil
		}},
		{"width product overflows", func(st *netState) {
			st.Ins[0] = 1 << 62
			st.Outs[0], st.Ins[3] = 4, 4
			st.Tensor[0], st.Tensor[1], st.Tensor[2] = nil, make([]float64, 4), make([]float64, 4)
		}},
		{"unknown kind", func(st *netState) { st.Kinds[1] = "gelu" }},
	}
	encode := func(st netState) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var net Network
	if err := net.UnmarshalBinary(encode(valid())); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for _, c := range cases {
		st := valid()
		c.mutate(&st)
		var net Network
		if err := net.UnmarshalBinary(encode(st)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
