package isa

import (
	"math"
	"testing"

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
