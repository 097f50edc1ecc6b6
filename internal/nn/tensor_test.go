package nn

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor, the activations of the
// tests' forward pass.
type Tensor struct {
	Shape []int
	Data  []float32
}

// NewTensor allocates a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("nn: invalid dimension %d", d))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape (the slice is not
// copied). The element count must match.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("nn: %d elements cannot fill shape %v", len(data), shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}, nil
}

// Elems returns the element count.
func (t *Tensor) Elems() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape of equal element count.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("nn: cannot reshape %v to %v", t.Shape, shape)
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}, nil
}

// At3 indexes a [H,W,C] tensor.
func (t *Tensor) At3(y, x, c int) float32 {
	return t.Data[(y*t.Shape[1]+x)*t.Shape[2]+c]
}

// Set3 writes a [H,W,C] tensor element.
func (t *Tensor) Set3(y, x, c int, v float32) {
	t.Data[(y*t.Shape[1]+x)*t.Shape[2]+c] = v
}

// SameShape reports whether two shapes are identical.
func SameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ArgMax returns the index of the largest element (first on ties), or -1
// for an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		return -1
	}
	best := 0
	for i, v := range t.Data {
		if v > t.Data[best] {
			best = i
		}
	}
	return best
}

// MaxAbs returns the largest |v| in the tensor.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := float32(math.Abs(float64(v)))
		if a > m {
			m = a
		}
	}
	return m
}

// rng is a small deterministic PRNG (xorshift64*) used for weight init, so
// the tests' weights are reproducible.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	s := uint64(seed)
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// float64 returns a uniform value in [0,1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// norm returns a standard normal draw (Box-Muller).
func (r *rng) norm() float64 {
	u1 := r.float64()
	for u1 == 0 {
		u1 = r.float64()
	}
	u2 := r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// heInit fills w with He-normal values for fan-in n.
func heInit(w []float32, fanIn int, r *rng) {
	std := math.Sqrt(2 / float64(fanIn))
	for i := range w {
		w[i] = float32(r.norm() * std)
	}
}
