package nn

import (
	"fmt"
	"math"
)

// MLP is a small trainable multi-layer perceptron (Dense + ReLU hidden
// layers, softmax cross-entropy output), so the forward pass and the int8
// quantizer are tested on a learned model, not random weights;
// ToSequential exports the trained network into the Sequential
// representation.
type MLP struct {
	Sizes []int // [in, hidden..., out]
	W     [][]float32
	B     [][]float32
	rng   *rng
}

// NewMLP returns a He-initialized MLP with the given layer sizes.
func NewMLP(seed int64, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs ≥ 2 sizes, got %v", sizes)
	}
	m := &MLP{Sizes: append([]int(nil), sizes...), rng: newRNG(seed)}
	for l := 0; l+1 < len(sizes); l++ {
		w := make([]float32, sizes[l]*sizes[l+1])
		heInit(w, sizes[l], m.rng)
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float32, sizes[l+1]))
	}
	return m, nil
}

// forward runs all layers, returning every layer's post-activation output
// (index 0 is the input).
func (m *MLP) forward(x []float32) [][]float32 {
	acts := [][]float32{x}
	cur := x
	last := len(m.W) - 1
	for l := range m.W {
		in, out := m.Sizes[l], m.Sizes[l+1]
		next := make([]float32, out)
		for o := 0; o < out; o++ {
			sum := m.B[l][o]
			row := m.W[l][o*in : (o+1)*in]
			for i, v := range cur {
				sum += row[i] * v
			}
			next[o] = sum
		}
		if l < last {
			for i, v := range next {
				if v < 0 {
					next[i] = 0
				}
			}
		} else {
			softmaxInPlace(next)
		}
		acts = append(acts, next)
		cur = next
	}
	return acts
}

// Predict returns the class probabilities for one input.
func (m *MLP) Predict(x []float32) []float32 {
	acts := m.forward(x)
	return acts[len(acts)-1]
}

// Classify returns the argmax class.
func (m *MLP) Classify(x []float32) int {
	p := m.Predict(x)
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}

// TrainEpoch runs one epoch of SGD with the given learning rate, visiting
// samples in a deterministic shuffled order, and returns the mean
// cross-entropy loss.
func (m *MLP) TrainEpoch(xs [][]float32, ys []int, lr float32) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0, fmt.Errorf("nn: bad training set (%d xs, %d ys)", len(xs), len(ys))
	}
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	// Fisher-Yates with the model's deterministic RNG.
	for i := len(order) - 1; i > 0; i-- {
		j := int(m.rng.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}

	var loss float64
	last := len(m.W) - 1
	for _, idx := range order {
		x, y := xs[idx], ys[idx]
		if len(x) != m.Sizes[0] || y < 0 || y >= m.Sizes[len(m.Sizes)-1] {
			return 0, fmt.Errorf("nn: sample dims/label out of range")
		}
		acts := m.forward(x)
		probs := acts[len(acts)-1]
		p := float64(probs[y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss += -math.Log(p)

		// Output delta for softmax + cross-entropy: p - onehot.
		delta := make([]float32, len(probs))
		copy(delta, probs)
		delta[y] -= 1

		// Backpropagate through Dense/ReLU stack.
		for l := last; l >= 0; l-- {
			in, out := m.Sizes[l], m.Sizes[l+1]
			prev := acts[l]
			var prevDelta []float32
			if l > 0 {
				prevDelta = make([]float32, in)
			}
			for o := 0; o < out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				row := m.W[l][o*in : (o+1)*in]
				for i := 0; i < in; i++ {
					if prevDelta != nil {
						prevDelta[i] += row[i] * d
					}
					row[i] -= lr * d * prev[i]
				}
				m.B[l][o] -= lr * d
			}
			if l > 0 {
				// ReLU gate on the hidden activation.
				for i := range prevDelta {
					if acts[l][i] <= 0 {
						prevDelta[i] = 0
					}
				}
				delta = prevDelta
			}
		}
	}
	return loss / float64(len(xs)), nil
}

// Fit trains for epochs epochs and returns the final epoch loss.
func (m *MLP) Fit(xs [][]float32, ys []int, epochs int, lr float32) (float64, error) {
	var loss float64
	var err error
	for e := 0; e < epochs; e++ {
		loss, err = m.TrainEpoch(xs, ys, lr)
		if err != nil {
			return 0, err
		}
	}
	return loss, nil
}

// Accuracy reports the classification accuracy over a labeled set.
func (m *MLP) Accuracy(xs [][]float32, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if m.Classify(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// ToSequential exports the trained MLP as an inference model (Dense + ReLU
// … + Dense + Softmax) sharing the same weight slices.
func (m *MLP) ToSequential(name string) (*Sequential, error) {
	var layers []Layer
	last := len(m.W) - 1
	for l := range m.W {
		d := NewDense(m.Sizes[l], m.Sizes[l+1])
		layerWeights[d] = &weights{W: m.W[l], B: m.B[l]}
		layers = append(layers, d)
		if l < last {
			layers = append(layers, ReLU{})
		} else {
			layers = append(layers, Softmax{})
		}
	}
	return NewSequential(name, []int{m.Sizes[0]}, layers...)
}
