package sensors

import (
	"math"
	"testing"

	"wiban/internal/units"
)

func TestDataRates(t *testing.T) {
	tests := []struct {
		s    *Sensor
		want units.DataRate
	}{
		{TempSensor(), 16 * units.BitPerSecond},
		{ECGPatch(), 3 * units.Kbps},
		{EEGHeadband(), 32 * units.Kbps},
		{IMU6Axis(), 9.6 * units.Kbps},
		{MicMono(), 256 * units.Kbps},
		{CameraQVGA(), units.DataRate(320 * 240 * 8 * 15)},
	}
	for _, tt := range tests {
		if got := tt.s.DataRate(); math.Abs(float64(got)-float64(tt.want)) > 1e-9 {
			t.Errorf("%s: rate = %v, want %v", tt.s.Name, got, tt.want)
		}
	}
}

func TestAFEPowerBands(t *testing.T) {
	// The paper's Fig. 1: human-inspired IoB sensors are 10–50 µW class
	// (biopotential, IMU); video is the exception that motivates hub
	// offload. Check class envelopes.
	for _, s := range []*Sensor{TempSensor(), ECGPatch(), EEGHeadband(), IMU6Axis(), MicMono(), CameraQVGA()} {
		switch s.Class {
		case Biopotential, IMU:
			if s.AFEPower > 100*units.Microwatt {
				t.Errorf("%s: %v exceeds the µW-class band", s.Name, s.AFEPower)
			}
		case Video:
			if s.AFEPower < 10*units.Milliwatt {
				t.Errorf("%s: video sensing should be mW class, got %v", s.Name, s.AFEPower)
			}
		}
	}
}

func TestECGSynthMorphology(t *testing.T) {
	fs := 250 * units.Hertz
	g := NewECGSynth(fs, 60, 1)
	sig := g.Samples(int(250 * 10)) // 10 s at 60 bpm → ~10 beats

	// Count R-peaks with a simple threshold on the known 1.2 mV R bump.
	peaks := 0
	for i := 1; i < len(sig)-1; i++ {
		if sig[i] > 0.7 && sig[i] >= sig[i-1] && sig[i] > sig[i+1] {
			peaks++
		}
	}
	if peaks < 8 || peaks > 13 {
		t.Errorf("found %d R-peaks in 10 s at 60 bpm, want ≈ 10", peaks)
	}
	// Signal must be bounded sanely (mV scale).
	for _, v := range sig {
		if math.Abs(v) > 3 {
			t.Fatalf("ECG sample %v mV out of range", v)
		}
	}
}

func TestECGSynthDeterministic(t *testing.T) {
	a := NewECGSynth(250*units.Hertz, 72, 5).Samples(500)
	b := NewECGSynth(250*units.Hertz, 72, 5).Samples(500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := NewECGSynth(250*units.Hertz, 72, 6).Samples(500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestAudioSynthVoicedContrast(t *testing.T) {
	g := NewAudioSynth(16*units.Kilohertz, 4)
	var vE, sE float64
	var vN, sN int
	for i := 0; i < 16000*4; i++ {
		x := g.Next()
		if x < -1 || x > 1 {
			t.Fatalf("audio sample %v out of [-1,1]", x)
		}
		if g.Voiced() {
			vE += x * x
			vN++
		} else {
			sE += x * x
			sN++
		}
	}
	if vN == 0 || sN == 0 {
		t.Fatal("audio generator never alternated")
	}
	if math.Sqrt(vE/float64(vN)) < 3*math.Sqrt(sE/float64(sN)) {
		t.Error("voiced/silence RMS contrast too low for VAD testing")
	}
}

func TestVideoSynthCoherence(t *testing.T) {
	g := NewVideoSynth(64, 48, 9)
	a := g.NextFrame()
	b := g.NextFrame()
	if len(a) != 64*48 || len(b) != len(a) {
		t.Fatalf("frame size %d, want %d", len(a), 64*48)
	}
	// Consecutive frames should be mostly identical (temporal coherence):
	// fewer than 30% of pixels change by more than the noise floor.
	changed := 0
	for i := range a {
		d := int(a[i]) - int(b[i])
		if d < -12 || d > 12 {
			changed++
		}
	}
	if frac := float64(changed) / float64(len(a)); frac > 0.3 {
		t.Errorf("%.0f%% of pixels changed between frames, want < 30%%", frac*100)
	}
	if g.Frame() != 2 {
		t.Errorf("frame counter = %d, want 2", g.Frame())
	}
}

func TestVideoSynthObjectMoves(t *testing.T) {
	g := NewVideoSynth(64, 48, 9)
	first := g.NextFrame()
	var last []byte
	for i := 0; i < 20; i++ {
		last = g.NextFrame()
	}
	diff := 0
	for i := range first {
		d := int(first[i]) - int(last[i])
		if d < -30 || d > 30 {
			diff++
		}
	}
	if diff == 0 {
		t.Error("object never moved across 20 frames")
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	in := []float64{0, 0.5, -0.5, 0.999, -0.999}
	codes := Quantize(in, 1.0)
	out := Dequantize(codes, 1.0)
	for i := range in {
		if math.Abs(in[i]-out[i]) > 1.0/32767*1.01 {
			t.Errorf("round trip error at %d: %v -> %v", i, in[i], out[i])
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	codes := Quantize([]float64{10, -10}, 1.0)
	if codes[0] != 32767 || codes[1] != -32768 {
		t.Errorf("saturation: got %v", codes)
	}
	if got := Quantize([]float64{1, 2}, 0); got[0] != 0 || got[1] != 0 {
		t.Error("zero full-scale should produce zeros")
	}
}
