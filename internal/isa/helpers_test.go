package isa

// Filters and spectral analysis that only these tests use; no binary
// links them.

import (
	"fmt"
	"math"
	"math/cmplx"

	"wiban/internal/units"
)

// ProcessAll filters a slice, returning a new slice.
func (f *Biquad) ProcessAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f.Process(x)
	}
	return out
}

// Reset clears the filter state.
func (f *Biquad) Reset() { f.x1, f.x2, f.y1, f.y2 = 0, 0, 0, 0 }

// NewLowPass designs an RBJ low-pass biquad at cutoff f0 with quality q.
func NewLowPass(fs, f0 units.Frequency, q float64) *Biquad {
	w0, alpha, cw := rbj(fs, f0, q)
	_ = w0
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 - cw) / 2 / a0, b1: (1 - cw) / a0, b2: (1 - cw) / 2 / a0,
		a1: -2 * cw / a0, a2: (1 - alpha) / a0,
	}
}

// NewHighPass designs an RBJ high-pass biquad.
func NewHighPass(fs, f0 units.Frequency, q float64) *Biquad {
	_, alpha, cw := rbj(fs, f0, q)
	a0 := 1 + alpha
	return &Biquad{
		b0: (1 + cw) / 2 / a0, b1: -(1 + cw) / a0, b2: (1 + cw) / 2 / a0,
		a1: -2 * cw / a0, a2: (1 - alpha) / a0,
	}
}

// --- FFT --------------------------------------------------------------------

// FFT computes the in-place radix-2 decimation-in-time FFT of x. The
// length must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("isa: FFT length %d is not a power of two", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// IFFT computes the inverse FFT (scaled by 1/n).
func IFFT(x []complex128) error {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT(x); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
	return nil
}

// Hann returns the n-point Hann window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// PowerSpectrum returns |FFT|² of a real windowed frame (length padded to
// the next power of two), bins 0..n/2.
func PowerSpectrum(frame []float64) ([]float64, error) {
	n := 1
	for n < len(frame) {
		n <<= 1
	}
	x := make([]complex128, n)
	for i, v := range frame {
		x[i] = complex(v, 0)
	}
	if err := FFT(x); err != nil {
		return nil, err
	}
	out := make([]float64, n/2+1)
	for i := range out {
		out[i] = real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	return out, nil
}

// BandEnergies integrates a power spectrum into nBands log-spaced bands
// between fLo and fHi — the "log-mel-lite" feature vector a keyword
// spotter consumes.
func BandEnergies(spec []float64, fs units.Frequency, fLo, fHi units.Frequency, nBands int) []float64 {
	out := make([]float64, nBands)
	if len(spec) < 2 || nBands < 1 || fLo <= 0 || fHi <= fLo {
		return out
	}
	nfft := (len(spec) - 1) * 2
	binHz := float64(fs) / float64(nfft)
	logLo, logHi := math.Log(float64(fLo)), math.Log(float64(fHi))
	for b := 0; b < nBands; b++ {
		lo := math.Exp(logLo + (logHi-logLo)*float64(b)/float64(nBands))
		hi := math.Exp(logLo + (logHi-logLo)*float64(b+1)/float64(nBands))
		iLo, iHi := int(lo/binHz), int(hi/binHz)
		if iLo < 0 {
			iLo = 0
		}
		if iHi > len(spec)-1 {
			iHi = len(spec) - 1
		}
		for i := iLo; i <= iHi; i++ {
			out[b] += spec[i]
		}
		out[b] = math.Log1p(out[b])
	}
	return out
}
