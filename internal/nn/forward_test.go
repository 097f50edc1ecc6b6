package nn

import (
	"fmt"
	"math"
)

// A float32 forward pass over the production layers. Binaries only
// profile a model's shapes; these tests run it, so the weights, the
// executor and the layers only they use (MaxPool2D) live here.

// weights are a layer's parameters, kept beside the shape-only layers.
type weights struct{ W, B []float32 }

var layerWeights = map[Layer]*weights{}

// weightsOf returns l's weights, allocating zeros on first use (none for
// a layer without parameters).
func weightsOf(l Layer) *weights {
	w, ok := layerWeights[l]
	if !ok {
		nw, nb, _ := paramShape(l)
		w = &weights{W: make([]float32, nw), B: make([]float32, nb)}
		layerWeights[l] = w
	}
	return w
}

// paramShape returns the weight and bias counts of l and its fan-in.
func paramShape(l Layer) (nw, nb, fanIn int) {
	switch l := l.(type) {
	case *Dense:
		return l.In * l.Out, l.Out, l.In
	case *Conv2D:
		return l.COut * l.KH * l.KW * l.CIn, l.COut, l.KH * l.KW * l.CIn
	case *DepthwiseConv2D:
		return l.C * l.KH * l.KW, l.C, l.KH * l.KW
	case *Conv1D:
		return l.COut * l.K * l.CIn, l.COut, l.K * l.CIn
	}
	return 0, 0, 0
}

// heLayer He-initialises l's weights from r and returns it.
func heLayer[L Layer](l L, r *rng) L {
	if _, _, fanIn := paramShape(l); fanIn > 0 {
		heInit(weightsOf(l).W, fanIn, r)
	}
	return l
}

// withWeights He-initialises every layer of m from seed, in layer order.
func withWeights(m *Sequential, seed int64) *Sequential {
	r := newRNG(seed)
	for _, l := range m.layers {
		heLayer(l, r)
	}
	return m
}

// forward runs one layer.
func forward(l Layer, x *Tensor) (*Tensor, error) {
	f, ok := l.(interface {
		Forward(*Tensor) (*Tensor, error)
	})
	if !ok {
		return nil, fmt.Errorf("nn: layer %s has no forward pass", l.Name())
	}
	return f.Forward(x)
}

// Layers returns the layer list.
func (m *Sequential) Layers() []Layer { return m.layers }

// OutShape returns the model output shape.
func (m *Sequential) OutShape() []int { return m.shapes[len(m.shapes)-1] }

// Forward runs the whole model.
func (m *Sequential) Forward(x *Tensor) (*Tensor, error) {
	return m.ForwardRange(x, 0, len(m.layers))
}

// ForwardRange runs layers [from, to) — the primitive a split deployment
// uses: the leaf runs [0, cut), transmits, and the hub runs [cut, end).
func (m *Sequential) ForwardRange(x *Tensor, from, to int) (*Tensor, error) {
	if from < 0 || to > len(m.layers) || from > to {
		return nil, fmt.Errorf("nn: invalid layer range [%d,%d)", from, to)
	}
	if !SameShape(x.Shape, m.shapes[from]) {
		return nil, fmt.Errorf("nn: input shape %v, want %v at layer %d", x.Shape, m.shapes[from], from)
	}
	var err error
	for i := from; i < to; i++ {
		x, err = forward(m.layers[i], x)
		if err != nil {
			return nil, fmt.Errorf("nn: %s layer %d (%s): %w", m.Name, i, m.layers[i].Name(), err)
		}
	}
	return x, nil
}

// Forward computes Wx + b over the flattened input.
func (d *Dense) Forward(x *Tensor) (*Tensor, error) {
	p := weightsOf(d)
	if x.Elems() != d.In {
		return nil, fmt.Errorf("nn: dense input %d, want %d", x.Elems(), d.In)
	}
	out := NewTensor(d.Out)
	for o := 0; o < d.Out; o++ {
		sum := p.B[o]
		row := p.W[o*d.In : (o+1)*d.In]
		for i, v := range x.Data {
			sum += row[i] * v
		}
		out.Data[o] = sum
	}
	return out, nil
}

// Forward computes the convolution directly.
func (c *Conv2D) Forward(x *Tensor) (*Tensor, error) {
	p := weightsOf(c)
	os, err := c.OutShape(x.Shape)
	if err != nil {
		return nil, err
	}
	h, w := x.Shape[0], x.Shape[1]
	ph, pw := c.pads()
	out := NewTensor(os...)
	for oy := 0; oy < os[0]; oy++ {
		for ox := 0; ox < os[1]; ox++ {
			for oc := 0; oc < c.COut; oc++ {
				sum := p.B[oc]
				wBase := oc * c.KH * c.KW * c.CIn
				for ky := 0; ky < c.KH; ky++ {
					sy := oy*c.Stride + ky - ph
					if sy < 0 || sy >= h {
						continue
					}
					for kx := 0; kx < c.KW; kx++ {
						sx := ox*c.Stride + kx - pw
						if sx < 0 || sx >= w {
							continue
						}
						xBase := (sy*w + sx) * c.CIn
						wOff := wBase + (ky*c.KW+kx)*c.CIn
						for ci := 0; ci < c.CIn; ci++ {
							sum += p.W[wOff+ci] * x.Data[xBase+ci]
						}
					}
				}
				out.Set3(oy, ox, oc, sum)
			}
		}
	}
	return out, nil
}

// Forward computes the depthwise convolution.
func (d *DepthwiseConv2D) Forward(x *Tensor) (*Tensor, error) {
	p := weightsOf(d)
	os, err := d.OutShape(x.Shape)
	if err != nil {
		return nil, err
	}
	h, w := x.Shape[0], x.Shape[1]
	ph, pw := d.pads()
	out := NewTensor(os...)
	for oy := 0; oy < os[0]; oy++ {
		for ox := 0; ox < os[1]; ox++ {
			for ch := 0; ch < d.C; ch++ {
				sum := p.B[ch]
				for ky := 0; ky < d.KH; ky++ {
					sy := oy*d.Stride + ky - ph
					if sy < 0 || sy >= h {
						continue
					}
					for kx := 0; kx < d.KW; kx++ {
						sx := ox*d.Stride + kx - pw
						if sx < 0 || sx >= w {
							continue
						}
						sum += p.W[(ch*d.KH+ky)*d.KW+kx] * x.At3(sy, sx, ch)
					}
				}
				out.Set3(oy, ox, ch, sum)
			}
		}
	}
	return out, nil
}

// Forward computes the 1-D convolution.
func (c *Conv1D) Forward(x *Tensor) (*Tensor, error) {
	cw := weightsOf(c)
	os, err := c.OutShape(x.Shape)
	if err != nil {
		return nil, err
	}
	tLen := x.Shape[0]
	p := c.pad()
	out := NewTensor(os...)
	for ot := 0; ot < os[0]; ot++ {
		for oc := 0; oc < c.COut; oc++ {
			sum := cw.B[oc]
			for k := 0; k < c.K; k++ {
				st := ot*c.Stride + k - p
				if st < 0 || st >= tLen {
					continue
				}
				for ci := 0; ci < c.CIn; ci++ {
					sum += cw.W[(oc*c.K+k)*c.CIn+ci] * x.Data[st*c.CIn+ci]
				}
			}
			out.Data[ot*c.COut+oc] = sum
		}
	}
	return out, nil
}

// MaxPool2D pools [H,W,C] by non-overlapping windows.
type MaxPool2D struct{ Size int }

// Name identifies the layer.
func (p *MaxPool2D) Name() string { return fmt.Sprintf("maxpool %d", p.Size) }

// OutShape divides spatial dims by the pool size.
func (p *MaxPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("nn: maxpool expects [H,W,C], got %v", in)
	}
	if p.Size <= 0 || in[0] < p.Size || in[1] < p.Size {
		return nil, fmt.Errorf("nn: maxpool %d too large for %v", p.Size, in)
	}
	return []int{in[0] / p.Size, in[1] / p.Size, in[2]}, nil
}

// Forward computes the max over each window.
func (p *MaxPool2D) Forward(x *Tensor) (*Tensor, error) {
	os, err := p.OutShape(x.Shape)
	if err != nil {
		return nil, err
	}
	out := NewTensor(os...)
	for oy := 0; oy < os[0]; oy++ {
		for ox := 0; ox < os[1]; ox++ {
			for c := 0; c < os[2]; c++ {
				m := float32(math.Inf(-1))
				for ky := 0; ky < p.Size; ky++ {
					for kx := 0; kx < p.Size; kx++ {
						v := x.At3(oy*p.Size+ky, ox*p.Size+kx, c)
						if v > m {
							m = v
						}
					}
				}
				out.Set3(oy, ox, c, m)
			}
		}
	}
	return out, nil
}

// Profile: pooling has comparisons, not MACs.
func (p *MaxPool2D) Profile(in []int) (Profile, error) {
	os, err := p.OutShape(in)
	if err != nil {
		return Profile{}, err
	}
	return Profile{OutElems: int64(os[0]) * int64(os[1]) * int64(os[2])}, nil
}

// Forward averages spatially.
func (g GlobalAvgPool) Forward(x *Tensor) (*Tensor, error) {
	os, err := g.OutShape(x.Shape)
	if err != nil {
		return nil, err
	}
	out := NewTensor(os...)
	hw := x.Shape[0] * x.Shape[1]
	for c := 0; c < os[0]; c++ {
		var sum float32
		for i := 0; i < hw; i++ {
			sum += x.Data[i*os[0]+c]
		}
		out.Data[c] = sum / float32(hw)
	}
	return out, nil
}

// Forward clamps negatives to zero.
func (ReLU) Forward(x *Tensor) (*Tensor, error) {
	out := x.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out, nil
}

// Forward computes a numerically stable softmax.
func (Softmax) Forward(x *Tensor) (*Tensor, error) {
	out := x.Clone()
	softmaxInPlace(out.Data)
	return out, nil
}

// softmaxInPlace applies a stable softmax to v.
func softmaxInPlace(v []float32) {
	if len(v) == 0 {
		return
	}
	max := v[0]
	for _, x := range v {
		if x > max {
			max = x
		}
	}
	var sum float32
	for i, x := range v {
		e := float32(math.Exp(float64(x - max)))
		v[i] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

// Forward reshapes without copying.
func (Flatten) Forward(x *Tensor) (*Tensor, error) { return x.Reshape(x.Elems()) }
