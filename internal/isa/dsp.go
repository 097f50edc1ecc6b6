// Package isa implements the in-sensor analytics (ISA) the paper assigns
// to human-inspired leaf nodes: the ~100 µW of local signal processing
// that turns a raw sensor stream into events, features, or a gated subset
// worth communicating.
//
// The package supplies the DSP primitives (a band-pass biquad IIR filter
// and a moving average), the event detectors built from them (ECG R-peak
// and audio voice-activity), and the transmission policies that convert
// detector output into an average link data rate — the quantity the
// battery-life projections consume.
package isa

import (
	"math"

	"wiban/internal/units"
)

// Biquad is a direct-form-I second-order IIR section.
type Biquad struct {
	b0, b1, b2, a1, a2 float64
	x1, x2, y1, y2     float64
}

// Process filters one sample.
func (f *Biquad) Process(x float64) float64 {
	y := f.b0*x + f.b1*f.x1 + f.b2*f.x2 - f.a1*f.y1 - f.a2*f.y2
	f.x2, f.x1 = f.x1, x
	f.y2, f.y1 = f.y1, y
	return y
}

// NewBandPass designs an RBJ constant-peak band-pass biquad centered at f0.
func NewBandPass(fs, f0 units.Frequency, q float64) *Biquad {
	w0 := 2 * math.Pi * float64(f0) / float64(fs)
	alpha := math.Sin(w0) / (2 * q)
	cw := math.Cos(w0)
	a0 := 1 + alpha
	return &Biquad{
		b0: alpha / a0, b1: 0, b2: -alpha / a0,
		a1: -2 * cw / a0, a2: (1 - alpha) / a0,
	}
}

// MovingAverage is a boxcar smoother of fixed window length.
type MovingAverage struct {
	buf []float64
	i   int
	n   int
	sum float64
}

// NewMovingAverage returns a window-length-w smoother (w ≥ 1).
func NewMovingAverage(w int) *MovingAverage {
	if w < 1 {
		w = 1
	}
	return &MovingAverage{buf: make([]float64, w)}
}

// Process pushes a sample and returns the current mean.
func (m *MovingAverage) Process(x float64) float64 {
	if m.n < len(m.buf) {
		m.n++
	} else {
		m.sum -= m.buf[m.i]
	}
	m.buf[m.i] = x
	m.sum += x
	m.i = (m.i + 1) % len(m.buf)
	return m.sum / float64(m.n)
}
