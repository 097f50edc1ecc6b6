package nn

import (
	"fmt"
	"math"
)

// Post-training int8 quantization, which only these tests run: the
// partitioner charges 8 bits per transmitted activation element, and these
// tests check that int8 arithmetic with symmetric per-tensor scales stays
// close to the float forward pass.

// QuantTensor is an int8 tensor with a symmetric per-tensor scale:
// real ≈ scale × q.
type QuantTensor struct {
	Shape []int
	Data  []int8
	Scale float32
}

// QuantizeTensor quantizes t to int8 with a symmetric scale chosen from
// its max magnitude.
func QuantizeTensor(t *Tensor) *QuantTensor {
	maxAbs := t.MaxAbs()
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	q := &QuantTensor{Shape: append([]int(nil), t.Shape...), Data: make([]int8, len(t.Data)), Scale: scale}
	for i, v := range t.Data {
		r := math.Round(float64(v / scale))
		if r > 127 {
			r = 127
		}
		if r < -128 {
			r = -128
		}
		q.Data[i] = int8(r)
	}
	return q
}

// Dequantize reconstructs the float tensor.
func (q *QuantTensor) Dequantize() *Tensor {
	t := &Tensor{Shape: append([]int(nil), q.Shape...), Data: make([]float32, len(q.Data))}
	for i, v := range q.Data {
		t.Data[i] = float32(v) * q.Scale
	}
	return t
}

// QuantDense is an int8-weight fully connected layer with float bias.
type QuantDense struct {
	In, Out int
	W8      []int8
	WScale  float32
	B       []float32
}

// QuantizeDense converts a float Dense layer.
func QuantizeDense(d *Dense) *QuantDense {
	w := weightsOf(d)
	var maxAbs float32
	for _, v := range w.W {
		a := float32(math.Abs(float64(v)))
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	q := &QuantDense{In: d.In, Out: d.Out, W8: make([]int8, len(w.W)), WScale: scale,
		B: append([]float32(nil), w.B...)}
	for i, v := range w.W {
		r := math.Round(float64(v / scale))
		if r > 127 {
			r = 127
		}
		if r < -128 {
			r = -128
		}
		q.W8[i] = int8(r)
	}
	return q
}

// Forward computes the layer on an int8-quantized input with int32
// accumulation, returning float outputs.
func (q *QuantDense) Forward(x *QuantTensor) ([]float32, error) {
	if len(x.Data) != q.In {
		return nil, fmt.Errorf("nn: quant dense input %d, want %d", len(x.Data), q.In)
	}
	out := make([]float32, q.Out)
	k := q.WScale * x.Scale
	for o := 0; o < q.Out; o++ {
		var acc int32
		row := q.W8[o*q.In : (o+1)*q.In]
		for i, v := range x.Data {
			acc += int32(row[i]) * int32(v)
		}
		out[o] = float32(acc)*k + q.B[o]
	}
	return out, nil
}

// QuantMLP is an int8 inference version of a trained MLP.
type QuantMLP struct {
	layers []*QuantDense
}

// QuantizeMLP converts a trained MLP to int8 weights.
func QuantizeMLP(m *MLP) *QuantMLP {
	q := &QuantMLP{}
	for l := range m.W {
		d := NewDense(m.Sizes[l], m.Sizes[l+1])
		layerWeights[d] = &weights{W: m.W[l], B: m.B[l]}
		q.layers = append(q.layers, QuantizeDense(d))
	}
	return q
}

// Classify runs int8 inference (activations re-quantized between layers)
// and returns the argmax class.
func (q *QuantMLP) Classify(x []float32) int {
	t, _ := FromSlice(append([]float32(nil), x...), len(x))
	cur := t
	for l, qd := range q.layers {
		out, err := qd.Forward(QuantizeTensor(cur))
		if err != nil {
			return -1
		}
		if l < len(q.layers)-1 {
			for i, v := range out {
				if v < 0 {
					out[i] = 0
				}
			}
		}
		cur, _ = FromSlice(out, len(out))
	}
	return cur.ArgMax()
}

// Accuracy reports int8 classification accuracy on a labeled set.
func (q *QuantMLP) Accuracy(xs [][]float32, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if q.Classify(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// WeightBytes returns the int8 weight storage size.
func (q *QuantMLP) WeightBytes() int {
	n := 0
	for _, l := range q.layers {
		n += len(l.W8) + 4*len(l.B)
	}
	return n
}
