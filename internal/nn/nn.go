// Package nn is a compact feed-forward neural network library built for
// the ER matchers: dense layers, ReLU/Tanh activations, dropout, a
// binary-cross-entropy-with-logits loss, SGD and Adam optimizers, and an
// early-stopping trainer.
//
// Inference (Network.Predict / Apply) is pure and safe for concurrent
// use; training mutates layer state and must be single-threaded, which
// the Trainer enforces by construction.
//
// # Batched inference
//
// The hot path of perturbation-based explainers is thousands of forward
// passes over near-identical inputs, so inference has a batched engine
// next to the scalar one: every Layer implements ApplyBatch over a
// packed row-major plane, activations and the final sigmoid apply over
// the whole plane, and all scratch lives in a pooled arena that is
// recycled across calls — steady-state Predict/PredictBatchFlat
// allocate nothing beyond the result slice.
//
// Dense has two kernels. On amd64 with AVX, a hand-written assembly
// kernel walks a cached column-major copy of the weights so that four
// consecutive outputs accumulate in one YMM register while each output
// still sums the weighted inputs in index order (dense_avx_amd64.s).
// Everywhere else, a register-blocked pure-Go kernel processes
// denseRowBlock batch rows per streaming pass over each weight row.
//
// Bit-for-bit agreement with the scalar path is a contract, not an
// accident: both kernels keep one scalar accumulator per (row, output)
// pair and add the weighted inputs in exactly Apply's left-to-right
// order — the vector kernel uses separate VMULPD/VADDPD (never FMA),
// which round identically to scalar multiply and add — so PredictBatch,
// PredictBatchFlat and Predict agree to the last bit on every row with
// the historical allocating row-at-a-time Logit chain, which the
// property test in batch_test.go keeps as its reference.
package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// param is one trainable tensor with its gradient accumulator and Adam
// moment estimates.
type param struct {
	w, g   []float64
	m, v   []float64 // Adam moments, allocated lazily
	shape2 int       // fan-in for printing/debugging; 0 for biases
	ver    uint64    // bumped on every weight mutation; invalidates derived layouts
}

// Layer is one stage of a feed-forward network.
type Layer interface {
	// Apply runs pure inference (no stored state, concurrency-safe).
	Apply(x []float64) []float64
	// ApplyBatch runs pure inference over a packed row-major batch: x
	// holds rows consecutive input vectors of width len(x)/rows. The
	// result plane (rows × OutSize vectors) is written into dst when its
	// capacity suffices and reallocated otherwise; callers pass a reused
	// buffer (or nil) and keep the return value. Every row of the result
	// is bit-identical to Apply on that row — batched layers must not
	// reorder each row's float accumulation.
	ApplyBatch(dst, x []float64, rows int) []float64
	// forwardTrain runs the training forward pass and may store state
	// needed by backward (dropout masks, pre-activations).
	forwardTrain(x []float64, rng *rand.Rand) []float64
	// backward receives the layer input and the loss gradient w.r.t. the
	// layer output, accumulates parameter gradients, and returns the
	// gradient w.r.t. the input.
	backward(x, gradOut []float64) []float64
	// params exposes trainable tensors to the optimizer (may be nil).
	params() []*param
	// OutSize reports the output width given an input width.
	OutSize(in int) int
}

// --- Dense -------------------------------------------------------------

// Dense is a fully connected layer: y = W·x + b.
type Dense struct {
	In, Out int
	w, b    *param
	tw      atomic.Pointer[twCache] // column-major weights for the vector kernel
}

// twCache is a column-major (input-major) copy of the weight matrix,
// tagged with the weight version it was derived from. The vector kernel
// walks it so that four consecutive outputs sit in one YMM register
// while each output's accumulation still runs in input order.
type twCache struct {
	ver uint64
	tw  []float64 // tw[i*Out+o] = w[o*In+i]
}

// transposed returns the column-major weight copy, rebuilding it when
// the weights have changed since it was derived (training bumps the
// version; inference never does, so steady-state calls allocate
// nothing). Concurrent callers may race to rebuild — both produce the
// same bytes and the loser's copy is garbage, which is benign.
func (d *Dense) transposed() []float64 {
	ver := d.w.ver
	if c := d.tw.Load(); c != nil && c.ver == ver {
		return c.tw
	}
	in, out := d.In, d.Out
	tw := make([]float64, in*out)
	for o := 0; o < out; o++ {
		row := d.w.w[o*in:][:in]
		for i, v := range row {
			tw[i*out+o] = v
		}
	}
	d.tw.Store(&twCache{ver: ver, tw: tw})
	return tw
}

// NewDense creates a dense layer with Xavier/Glorot-uniform initialized
// weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense shape %dx%d", in, out))
	}
	d := &Dense{
		In:  in,
		Out: out,
		w:   &param{w: make([]float64, in*out), g: make([]float64, in*out), shape2: in},
		b:   &param{w: make([]float64, out), g: make([]float64, out)},
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.w.w {
		d.w.w[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Apply computes W·x + b.
func (d *Dense) Apply(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense expects input %d, got %d", d.In, len(x)))
	}
	y := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		row := d.w.w[o*d.In : (o+1)*d.In]
		s := d.b.w[o]
		for i, v := range x {
			s += row[i] * v
		}
		y[o] = s
	}
	return y
}

// denseRowBlock is the register-blocking factor of the batched Dense
// kernel over batch rows: that many rows share one streaming pass over
// each weight row. Combined with the two-output blocking below it gives
// eight independent accumulator chains per inner loop — enough to hide
// FP-add latency, which is what bounds a single serial dot product.
const denseRowBlock = 4

// ApplyBatch implements Layer with a register-blocked matrix–matrix
// kernel: blocks of four batch rows × two outputs share one pass over
// the inputs. Blocking happens over rows and outputs only — never over
// the input dimension, which would split an accumulator and change float
// rounding. Every (row, output) pair keeps one scalar accumulator that
// adds the weighted inputs in exactly Apply's left-to-right order, so
// each output value is bit-identical to the scalar path's.
func (d *Dense) ApplyBatch(dst, x []float64, rows int) []float64 {
	if len(x) != rows*d.In {
		panic(fmt.Sprintf("nn: Dense batch expects %d×%d inputs, got %d values", rows, d.In, len(x)))
	}
	dst = growTo(dst, rows*d.Out)
	in, out := d.In, d.Out
	if useAVX && out >= 4 && in > 0 && rows > 0 {
		// Vector path: each row runs through the column-major AVX kernel
		// (four outputs per YMM lane group, accumulating in input order —
		// bit-identical to Apply), with the out%4 remainder finished by
		// the scalar loop below.
		tw := d.transposed()
		bias := d.b.w
		vec := out &^ 3
		for r := 0; r < rows; r++ {
			xr := x[r*in:][:in]
			yr := dst[r*out:][:out]
			denseFwdAVX(&xr[0], &tw[0], &bias[0], &yr[0], in, out)
			for o := vec; o < out; o++ {
				w0 := d.w.w[o*in:][:in]
				s := bias[o]
				for i := 0; i < in; i++ {
					s += w0[i] * xr[i]
				}
				yr[o] = s
			}
		}
		return dst
	}
	wts, bias := d.w.w, d.b.w
	r := 0
	for ; r+denseRowBlock <= rows; r += denseRowBlock {
		// Reslicing to exactly [:in]/[:out] lets the compiler drop the
		// bounds checks in the hot loops below.
		x0 := x[(r+0)*in:][:in]
		x1 := x[(r+1)*in:][:in]
		x2 := x[(r+2)*in:][:in]
		x3 := x[(r+3)*in:][:in]
		y0 := dst[(r+0)*out:][:out]
		y1 := dst[(r+1)*out:][:out]
		y2 := dst[(r+2)*out:][:out]
		y3 := dst[(r+3)*out:][:out]
		for o := 0; o < out; o++ {
			w0 := wts[o*in:][:in]
			a0, a1, a2, a3 := bias[o], bias[o], bias[o], bias[o]
			for i := 0; i < in; i++ {
				u := w0[i]
				a0 += u * x0[i]
				a1 += u * x1[i]
				a2 += u * x2[i]
				a3 += u * x3[i]
			}
			y0[o], y1[o], y2[o], y3[o] = a0, a1, a2, a3
		}
	}
	for ; r < rows; r++ {
		d.applyRow(dst[r*out:][:out], x[r*in:][:in])
	}
	return dst
}

// applyRow computes one row's outputs with output-blocking: four output
// accumulators share the input stream, so even the scalar Predict path
// has independent FP chains. Each accumulator's order is Apply's.
func (d *Dense) applyRow(y, xr []float64) {
	in := d.In
	xr = xr[:in]
	wts, bias := d.w.w, d.b.w
	o := 0
	for ; o+4 <= d.Out; o += 4 {
		w0 := wts[(o+0)*in:][:in]
		w1 := wts[(o+1)*in:][:in]
		w2 := wts[(o+2)*in:][:in]
		w3 := wts[(o+3)*in:][:in]
		s0, s1, s2, s3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		for i := 0; i < in; i++ {
			v := xr[i]
			s0 += w0[i] * v
			s1 += w1[i] * v
			s2 += w2[i] * v
			s3 += w3[i] * v
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < d.Out; o++ {
		w0 := wts[o*in:][:in]
		s := bias[o]
		for i := 0; i < in; i++ {
			s += w0[i] * xr[i]
		}
		y[o] = s
	}
}

func (d *Dense) forwardTrain(x []float64, _ *rand.Rand) []float64 { return d.Apply(x) }

func (d *Dense) backward(x, gradOut []float64) []float64 {
	gradIn := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := gradOut[o]
		if g == 0 {
			continue
		}
		row := d.w.w[o*d.In : (o+1)*d.In]
		grow := d.w.g[o*d.In : (o+1)*d.In]
		d.b.g[o] += g
		for i, v := range x {
			grow[i] += g * v
			gradIn[i] += g * row[i]
		}
	}
	return gradIn
}

func (d *Dense) params() []*param { return []*param{d.w, d.b} }

// OutSize implements Layer.
func (d *Dense) OutSize(int) int { return d.Out }

// --- Activations ---------------------------------------------------------

// ReLU applies max(0, x) elementwise.
type ReLU struct{}

// Apply implements Layer.
func (ReLU) Apply(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
		}
	}
	return y
}

// ApplyBatch implements Layer. Element-wise, so the plane is processed
// in one pass regardless of the row structure. The select runs in the
// integer domain (mask built from an unsigned range check) instead of a
// float branch: activation signs are data-dependent coin flips, and a
// mispredicting branch per element costs more than the whole max. The
// mask keeps Apply's exact semantics — v > 0 passes through (including
// +Inf), everything else (negatives, ±0, NaN) becomes +0.
func (ReLU) ApplyBatch(dst, x []float64, rows int) []float64 {
	dst = growTo(dst, len(x))
	for i, v := range x {
		u := math.Float64bits(v)
		var m uint64
		if u-1 < 0x7FF0000000000000 { // u in [1, +Inf bits]: exactly v > 0
			m = ^uint64(0)
		}
		dst[i] = math.Float64frombits(u & m)
	}
	return dst
}

func (r ReLU) forwardTrain(x []float64, _ *rand.Rand) []float64 { return r.Apply(x) }

func (ReLU) backward(x, gradOut []float64) []float64 {
	g := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			g[i] = gradOut[i]
		}
	}
	return g
}

func (ReLU) params() []*param { return nil }

// OutSize implements Layer.
func (ReLU) OutSize(in int) int { return in }

// Tanh applies the hyperbolic tangent elementwise.
type Tanh struct{}

// Apply implements Layer.
func (Tanh) Apply(x []float64) []float64 {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// ApplyBatch implements Layer.
func (Tanh) ApplyBatch(dst, x []float64, rows int) []float64 {
	dst = growTo(dst, len(x))
	for i, v := range x {
		dst[i] = math.Tanh(v)
	}
	return dst
}

func (t Tanh) forwardTrain(x []float64, _ *rand.Rand) []float64 { return t.Apply(x) }

func (Tanh) backward(x, gradOut []float64) []float64 {
	g := make([]float64, len(x))
	for i, v := range x {
		th := math.Tanh(v)
		g[i] = gradOut[i] * (1 - th*th)
	}
	return g
}

func (Tanh) params() []*param { return nil }

// OutSize implements Layer.
func (Tanh) OutSize(in int) int { return in }

// --- Dropout --------------------------------------------------------------

// Dropout zeroes units with probability Rate during training and is the
// identity at inference (inverted dropout: kept units are scaled up so no
// rescaling is needed at inference).
type Dropout struct {
	Rate float64
	mask []float64
}

// Apply implements Layer (inference: identity).
func (d *Dropout) Apply(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}

// ApplyBatch implements Layer (inference: identity).
func (d *Dropout) ApplyBatch(dst, x []float64, rows int) []float64 {
	dst = growTo(dst, len(x))
	copy(dst, x)
	return dst
}

func (d *Dropout) forwardTrain(x []float64, rng *rand.Rand) []float64 {
	if d.Rate <= 0 {
		return d.Apply(x)
	}
	keep := 1 - d.Rate
	d.mask = make([]float64, len(x))
	y := make([]float64, len(x))
	for i, v := range x {
		if rng.Float64() < keep {
			d.mask[i] = 1 / keep
			y[i] = v / keep
		}
	}
	return y
}

func (d *Dropout) backward(_, gradOut []float64) []float64 {
	if d.mask == nil {
		g := make([]float64, len(gradOut))
		copy(g, gradOut)
		return g
	}
	g := make([]float64, len(gradOut))
	for i := range gradOut {
		g[i] = gradOut[i] * d.mask[i]
	}
	return g
}

func (d *Dropout) params() []*param { return nil }

// OutSize implements Layer.
func (d *Dropout) OutSize(in int) int { return in }

// --- Network ---------------------------------------------------------------

// Network is a feed-forward stack of layers ending in a single logit.
type Network struct {
	Layers []Layer
}

// NewMLP builds Dense+ReLU hidden layers followed by a single-logit
// output layer, with optional dropout after each hidden activation.
func NewMLP(in int, hidden []int, dropout float64, rng *rand.Rand) *Network {
	var layers []Layer
	prev := in
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, rng), ReLU{})
		if dropout > 0 {
			layers = append(layers, &Dropout{Rate: dropout})
		}
		prev = h
	}
	layers = append(layers, NewDense(prev, 1, rng))
	return &Network{Layers: layers}
}

// Logit runs pure inference and returns the raw output logit.
func (n *Network) Logit(x []float64) float64 {
	h := x
	for _, l := range n.Layers {
		h = l.Apply(h)
	}
	if len(h) != 1 {
		panic(fmt.Sprintf("nn: network output width %d, want 1", len(h)))
	}
	return h[0]
}

// growTo returns dst resized to n values, reallocating only when its
// capacity is insufficient. Contents are unspecified — callers must
// write every element.
func growTo(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// arena is the reusable scratch of one batched forward pass: a packing
// buffer for the input plane plus two ping-pong activation buffers.
// Arenas are recycled through a pool so steady-state inference allocates
// nothing beyond the caller-facing result slice.
type arena struct {
	in, a, b []float64
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// forwardFrom runs the batched layer stack over a packed row-major input
// plane, ping-ponging activations between the arena's two scratch
// buffers. x itself is never written, so callers may pass caller-owned
// memory. The returned plane aliases arena scratch — copy out what you
// keep before releasing the arena.
func (n *Network) forwardFrom(ar *arena, x []float64, rows int) []float64 {
	cur := x
	scratch := [2][]float64{ar.a, ar.b}
	si := 0
	for _, l := range n.Layers {
		out := l.ApplyBatch(scratch[si][:0], cur, rows)
		scratch[si] = out[:cap(out)] // keep grown capacity for reuse
		cur = out
		si = 1 - si
	}
	ar.a, ar.b = scratch[0], scratch[1]
	return cur
}

// Predict returns the matching probability sigmoid(logit) in [0,1]. It
// routes through the pooled batch engine with a single row, so the
// scalar path shares the allocation-free kernels (and agrees with the
// historical sigmoid(Logit(x)) path bit-for-bit).
func (n *Network) Predict(x []float64) float64 {
	ar := arenaPool.Get().(*arena)
	z := n.forwardFrom(ar, x, 1)
	if len(z) != 1 {
		panic(fmt.Sprintf("nn: network output width %d, want 1", len(z)))
	}
	p := sigmoid(z[0])
	arenaPool.Put(ar)
	return p
}

// PredictBatch runs pure inference over many inputs and returns one
// probability per row, index-aligned. The rows are packed into a pooled
// arena and pushed through the blocked batch kernels in one pass per
// layer; every row agrees bit-for-bit with scalar Predict.
func (n *Network) PredictBatch(xs [][]float64) []float64 {
	if len(xs) == 0 {
		return make([]float64, 0)
	}
	w := len(xs[0])
	ar := arenaPool.Get().(*arena)
	ar.in = growTo(ar.in, len(xs)*w)
	for r, x := range xs {
		if len(x) != w {
			arenaPool.Put(ar)
			panic(fmt.Sprintf("nn: ragged batch: row 0 has width %d, row %d has %d", w, r, len(x)))
		}
		copy(ar.in[r*w:(r+1)*w], x)
	}
	out := n.predictPacked(ar, ar.in, len(xs))
	arenaPool.Put(ar)
	return out
}

// PredictBatchFlat scores a packed row-major batch: x holds rows
// consecutive feature vectors of equal width len(x)/rows. It is the
// zero-copy entry point for callers that featurize directly into a flat
// buffer (matchers.ScoreBatch); x is read-only. Returns one probability
// per row, bit-identical to scalar Predict on each row.
func (n *Network) PredictBatchFlat(x []float64, rows int) []float64 {
	if rows == 0 {
		return make([]float64, 0)
	}
	if len(x)%rows != 0 {
		panic(fmt.Sprintf("nn: flat batch of %d values does not divide into %d rows", len(x), rows))
	}
	ar := arenaPool.Get().(*arena)
	out := n.predictPacked(ar, x, rows)
	arenaPool.Put(ar)
	return out
}

// batchTile bounds how many batch rows travel through the layer stack
// at once: large enough to amortize weight streaming across the blocked
// kernel, small enough that every intermediate activation plane stays
// cache-resident (64 rows × 64 hidden units is 32KB) instead of
// thrashing L2 the way a whole perturbation batch would. Tiling over
// rows never touches a row's accumulation order, so it cannot change
// results.
const batchTile = 64

// predictPacked runs the layer stack over a packed plane in
// cache-friendly row tiles and applies the sigmoid across each tile's
// logit row, copying the probabilities into a fresh caller-facing slice
// so the arena can be released.
func (n *Network) predictPacked(ar *arena, x []float64, rows int) []float64 {
	w := len(x) / rows
	out := make([]float64, rows)
	for t := 0; t < rows; t += batchTile {
		nr := rows - t
		if nr > batchTile {
			nr = batchTile
		}
		z := n.forwardFrom(ar, x[t*w:(t+nr)*w], nr)
		if len(z) != nr {
			panic(fmt.Sprintf("nn: network output width %d per row, want 1", len(z)/nr))
		}
		for r, v := range z {
			out[t+r] = sigmoid(v)
		}
	}
	return out
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// trainStep runs forward+backward for one example and accumulates
// gradients. Returns the example loss.
func (n *Network) trainStep(x []float64, y float64, rng *rand.Rand) float64 {
	// Forward, caching inputs to each layer.
	inputs := make([][]float64, len(n.Layers))
	h := x
	for i, l := range n.Layers {
		inputs[i] = h
		h = l.forwardTrain(h, rng)
	}
	z := h[0]
	// BCE with logits; numerically stable.
	loss := math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
	grad := []float64{sigmoid(z) - y}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].backward(inputs[i], grad)
	}
	return loss
}

// allParams collects every trainable tensor.
func (n *Network) allParams() []*param {
	var ps []*param
	for _, l := range n.Layers {
		ps = append(ps, l.params()...)
	}
	return ps
}

// zeroGrads clears accumulated gradients.
func (n *Network) zeroGrads() {
	for _, p := range n.allParams() {
		for i := range p.g {
			p.g[i] = 0
		}
	}
}

// --- Serialization -----------------------------------------------------

// netState is the gob-serializable view of a network.
type netState struct {
	Kinds  []string // "dense", "relu", "tanh", "dropout"
	Ins    []int
	Outs   []int
	Rates  []float64
	Tensor [][]float64 // dense weights then biases, in layer order
}

// MarshalBinary serializes the network architecture and weights.
func (n *Network) MarshalBinary() ([]byte, error) {
	var st netState
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Dense:
			st.Kinds = append(st.Kinds, "dense")
			st.Ins = append(st.Ins, t.In)
			st.Outs = append(st.Outs, t.Out)
			st.Rates = append(st.Rates, 0)
			st.Tensor = append(st.Tensor, append([]float64(nil), t.w.w...))
			st.Tensor = append(st.Tensor, append([]float64(nil), t.b.w...))
		case ReLU:
			st.Kinds = append(st.Kinds, "relu")
			st.Ins = append(st.Ins, 0)
			st.Outs = append(st.Outs, 0)
			st.Rates = append(st.Rates, 0)
		case Tanh:
			st.Kinds = append(st.Kinds, "tanh")
			st.Ins = append(st.Ins, 0)
			st.Outs = append(st.Outs, 0)
			st.Rates = append(st.Rates, 0)
		case *Dropout:
			st.Kinds = append(st.Kinds, "dropout")
			st.Ins = append(st.Ins, 0)
			st.Outs = append(st.Outs, 0)
			st.Rates = append(st.Rates, t.Rate)
		default:
			return nil, fmt.Errorf("nn: cannot serialize layer of type %T", l)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("nn: encoding network: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a network serialized by MarshalBinary.
func (n *Network) UnmarshalBinary(data []byte) error {
	var st netState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("nn: decoding network: %w", err)
	}
	n.Layers = nil
	ti := 0
	for i, kind := range st.Kinds {
		switch kind {
		case "dense":
			if ti+1 >= len(st.Tensor)+1 && ti+1 > len(st.Tensor) {
				return fmt.Errorf("nn: truncated tensor data")
			}
			d := &Dense{
				In:  st.Ins[i],
				Out: st.Outs[i],
				w:   &param{shape2: st.Ins[i]},
				b:   &param{},
			}
			if ti+1 >= len(st.Tensor)+1 {
				return fmt.Errorf("nn: missing tensors for dense layer %d", i)
			}
			d.w.w = append([]float64(nil), st.Tensor[ti]...)
			d.b.w = append([]float64(nil), st.Tensor[ti+1]...)
			d.w.g = make([]float64, len(d.w.w))
			d.b.g = make([]float64, len(d.b.w))
			if len(d.w.w) != d.In*d.Out || len(d.b.w) != d.Out {
				return fmt.Errorf("nn: tensor shape mismatch for dense layer %d", i)
			}
			ti += 2
			n.Layers = append(n.Layers, d)
		case "relu":
			n.Layers = append(n.Layers, ReLU{})
		case "tanh":
			n.Layers = append(n.Layers, Tanh{})
		case "dropout":
			n.Layers = append(n.Layers, &Dropout{Rate: st.Rates[i]})
		default:
			return fmt.Errorf("nn: unknown layer kind %q", kind)
		}
	}
	return nil
}
