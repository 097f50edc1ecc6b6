package isa

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"wiban/internal/sensors"
	"wiban/internal/units"
)

// --- Filters -----------------------------------------------------------------

// gainAt measures a filter's steady-state amplitude gain at frequency f.
func gainAt(mk func() *Biquad, fs, f units.Frequency) float64 {
	filt := mk()
	n := int(float64(fs) * 2)
	var maxOut float64
	for i := 0; i < n; i++ {
		x := math.Sin(2 * math.Pi * float64(f) * float64(i) / float64(fs))
		y := filt.Process(x)
		if i > n/2 && math.Abs(y) > maxOut { // skip transient
			maxOut = math.Abs(y)
		}
	}
	return maxOut
}

func TestLowPassResponse(t *testing.T) {
	fs := 1 * units.Kilohertz
	mk := func() *Biquad { return NewLowPass(fs, 50*units.Hertz, 0.707) }
	pass := gainAt(mk, fs, 10*units.Hertz)
	stop := gainAt(mk, fs, 400*units.Hertz)
	if pass < 0.9 || pass > 1.1 {
		t.Errorf("passband gain %.3f, want ≈ 1", pass)
	}
	if stop > 0.05 {
		t.Errorf("stopband gain %.3f, want < 0.05", stop)
	}
}

func TestHighPassResponse(t *testing.T) {
	fs := 1 * units.Kilohertz
	mk := func() *Biquad { return NewHighPass(fs, 100*units.Hertz, 0.707) }
	if g := gainAt(mk, fs, 400*units.Hertz); g < 0.9 || g > 1.1 {
		t.Errorf("HP passband gain %.3f, want ≈ 1", g)
	}
	if g := gainAt(mk, fs, 5*units.Hertz); g > 0.05 {
		t.Errorf("HP stopband gain %.3f, want < 0.05", g)
	}
}

func TestBandPassResponse(t *testing.T) {
	fs := 250 * units.Hertz
	mk := func() *Biquad { return NewBandPass(fs, 10*units.Hertz, 0.7) }
	center := gainAt(mk, fs, 10*units.Hertz)
	below := gainAt(mk, fs, 0.5*units.Hertz)
	above := gainAt(mk, fs, 100*units.Hertz)
	if center < 0.7 {
		t.Errorf("BP center gain %.3f, want ≈ 1", center)
	}
	if below > center/3 || above > center/3 {
		t.Errorf("BP skirts %.3f/%.3f not attenuated vs center %.3f", below, above, center)
	}
}

func TestBiquadResetAndProcessAll(t *testing.T) {
	f := NewLowPass(1*units.Kilohertz, 100*units.Hertz, 0.707)
	in := []float64{1, 0, 0, 0, 0}
	a := f.ProcessAll(in)
	f.Reset()
	b := f.ProcessAll(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Reset did not restore initial state")
		}
	}
}

func TestMovingAverage(t *testing.T) {
	m := NewMovingAverage(4)
	seq := []float64{4, 8, 12, 16, 20}
	want := []float64{4, 6, 8, 10, 14}
	for i, x := range seq {
		if got := m.Process(x); math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("MA[%d] = %v, want %v", i, got, want[i])
		}
	}
	if NewMovingAverage(0) == nil {
		t.Error("zero window should clamp, not fail")
	}
}

// --- FFT ---------------------------------------------------------------------

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 16)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSinusoidBin(t *testing.T) {
	n := 64
	k := 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*float64(k)*float64(i)/float64(n)), 0)
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	// Energy should concentrate at bins k and n-k.
	for i := range x {
		mag := cmplx.Abs(x[i])
		if i == k || i == n-k {
			if mag < float64(n)/2*0.99 {
				t.Errorf("bin %d magnitude %.2f, want %.1f", i, mag, float64(n)/2)
			}
		} else if mag > 1e-9 {
			t.Errorf("leakage at bin %d: %g", i, mag)
		}
	}
}

func TestFFTInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 128
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if FFT(x) != nil || IFFT(x) != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 256
	x := make([]complex128, n)
	var timeE float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeE += real(x[i]) * real(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqE float64
	for _, v := range x {
		freqE += real(v)*real(v) + imag(v)*imag(v)
	}
	freqE /= float64(n)
	if math.Abs(timeE-freqE)/timeE > 1e-9 {
		t.Errorf("Parseval violated: time %.6f vs freq %.6f", timeE, freqE)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Error("length 12 should fail")
	}
	if err := FFT(nil); err == nil {
		t.Error("empty should fail")
	}
}

func TestPowerSpectrumAndBands(t *testing.T) {
	fs := 16 * units.Kilohertz
	n := 512
	frame := make([]float64, n)
	w := Hann(n)
	for i := range frame {
		frame[i] = w[i] * math.Sin(2*math.Pi*1000*float64(i)/float64(fs))
	}
	spec, err := PowerSpectrum(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Peak bin should be near 1 kHz: bin = 1000/(16000/512) = 32.
	peak := 0
	for i := range spec {
		if spec[i] > spec[peak] {
			peak = i
		}
	}
	if peak < 30 || peak > 34 {
		t.Errorf("spectral peak at bin %d, want ≈ 32", peak)
	}

	bands := BandEnergies(spec, fs, 100*units.Hertz, 8*units.Kilohertz, 12)
	if len(bands) != 12 {
		t.Fatalf("band count %d", len(bands))
	}
	// The band containing 1 kHz should dominate.
	maxB := 0
	for i := range bands {
		if bands[i] > bands[maxB] {
			maxB = i
		}
	}
	// 1 kHz in log space from 100..8000: log(10)/log(80) ≈ 0.526 → band 6 of 12.
	if maxB < 5 || maxB > 7 {
		t.Errorf("dominant band %d, want ≈ 6", maxB)
	}
}

func TestBandEnergiesDegenerate(t *testing.T) {
	if got := BandEnergies(nil, units.Kilohertz, 1, 10, 4); len(got) != 4 {
		t.Error("degenerate bands length wrong")
	}
	if got := BandEnergies([]float64{1, 2, 3}, units.Kilohertz, 10, 5, 2); got[0] != 0 {
		t.Error("inverted band range should be zeros")
	}
}

func TestHannWindow(t *testing.T) {
	w := Hann(64)
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[63]) > 1e-12 {
		t.Error("Hann endpoints should be 0")
	}
	if math.Abs(w[32]-1) > 0.01 {
		t.Errorf("Hann midpoint %.3f, want ≈ 1", w[32])
	}
	if one := Hann(1); one[0] != 1 {
		t.Error("Hann(1) should be [1]")
	}
}

// --- Detectors -----------------------------------------------------------------

func TestRPeakDetectorAccuracy(t *testing.T) {
	fs := 250 * units.Hertz
	for _, bpm := range []float64{55, 72, 95} {
		g := sensors.NewECGSynth(fs, bpm, 3)
		d := NewRPeakDetector(fs)
		seconds := 60.0
		for i := 0; i < int(seconds*float64(fs)); i++ {
			d.Process(g.Next())
		}
		want := bpm // beats in 60 s
		got := float64(len(d.Peaks()))
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("bpm=%v: detected %v beats in 60 s, want ≈ %v", bpm, got, want)
		}
		if hr := d.HeartRateBPM(); math.Abs(hr-bpm)/bpm > 0.15 {
			t.Errorf("bpm=%v: estimated HR %.1f", bpm, hr)
		}
	}
}

func TestRPeakRefractory(t *testing.T) {
	fs := 250 * units.Hertz
	g := sensors.NewECGSynth(fs, 70, 4)
	d := NewRPeakDetector(fs)
	for i := 0; i < 250*30; i++ {
		d.Process(g.Next())
	}
	peaks := d.Peaks()
	minGap := 250 / 4 // 250 ms refractory at 250 Hz
	for i := 1; i < len(peaks); i++ {
		if peaks[i]-peaks[i-1] < minGap {
			t.Fatalf("peaks %d and %d violate refractory", peaks[i-1], peaks[i])
		}
	}
	if d.HeartRateBPM() == 0 {
		t.Error("heart rate should be available after 30 s")
	}
}

func TestVADAccuracy(t *testing.T) {
	fs := 16 * units.Kilohertz
	g := sensors.NewAudioSynth(fs, 6)
	v := NewVAD(fs)
	agree, total := 0, 0
	for i := 0; i < 16000*30; i++ {
		x := g.Next()
		got := v.Process(x)
		if i > 16000 { // skip floor convergence
			if got == g.Voiced() {
				agree++
			}
			total++
		}
	}
	if acc := float64(agree) / float64(total); acc < 0.8 {
		t.Errorf("VAD accuracy %.2f, want ≥ 0.8", acc)
	}
	sf := v.SpeechFraction()
	if sf < 0.2 || sf > 0.8 {
		t.Errorf("speech fraction %.2f implausible for alternating source", sf)
	}
}

// --- Policies ---------------------------------------------------------------------

func TestPolicies(t *testing.T) {
	raw := 256 * units.Kbps
	tests := []struct {
		p     Policy
		minRF float64
		maxRF float64
	}{
		{StreamAll{}, 1, 1},
		{Compress{"ADPCM", 4, 20 * units.Microwatt}, 4, 4},
		{EventGated{"VAD", 0.5, 400 * units.Millisecond, 100, 30 * units.Microwatt}, 4.9, 5.1},
		{FeatureOnly{"band-energies", 50, 12 * 16, 80 * units.Microwatt}, 26, 27},
	}
	for _, tt := range tests {
		rf := ReductionFactor(tt.p, raw)
		if rf < tt.minRF || rf > tt.maxRF {
			t.Errorf("%s: reduction factor %.2f, want in [%v, %v]",
				tt.p.Name(), rf, tt.minRF, tt.maxRF)
		}
		if tt.p.Name() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestPolicyCaps(t *testing.T) {
	raw := 1 * units.Kbps
	// Gating with huge windows cannot exceed streaming.
	g := EventGated{"busy", 100, units.Second, 10 * units.Kbps, 0}
	if g.OutputRate(raw) > raw {
		t.Error("event gating exceeded raw rate")
	}
	// Feature-only with giant features caps at raw.
	f := FeatureOnly{"huge", 1000, 1 << 20, 0}
	if f.OutputRate(raw) > raw {
		t.Error("feature-only exceeded raw rate")
	}
	// Compression with ratio ≤ 1 is a pass-through.
	c := Compress{"bad", 0.5, 0}
	if c.OutputRate(raw) != raw {
		t.Error("ratio<1 compression should pass through")
	}
}

func TestReductionFactorDegenerate(t *testing.T) {
	if ReductionFactor(FeatureOnly{"silent", 0, 0, 0}, 0) != 0 {
		t.Error("zero output should report 0")
	}
}
