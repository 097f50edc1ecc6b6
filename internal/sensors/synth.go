package sensors

import (
	"math"
	"math/rand"

	"wiban/internal/units"
)

// Synthetic signal generators. The compression codecs and in-sensor
// analytics need realistically structured inputs (quasi-periodic ECG,
// voiced/unvoiced audio, temporally coherent video) — white noise would
// make every compression-ratio and detector benchmark meaningless. Each
// generator is deterministic for a given seed.

// ECGSynth generates a single-lead ECG as a sum of Gaussian bumps per beat
// (a light-weight ECGSYN-style PQRST model) with baseline wander and
// additive noise. Amplitudes are in millivolts.
type ECGSynth struct {
	SampleRate units.Frequency
	HeartRate  float64 // beats per minute
	NoiseMV    float64 // additive Gaussian noise sigma (mV)
	WanderMV   float64 // baseline wander amplitude (mV)
	rng        *rand.Rand
	phase      float64 // beat phase [0,1)
	wanderPh   float64
	jitter     float64 // current beat-length multiplier
}

// NewECGSynth returns a generator at fs with the given heart rate.
func NewECGSynth(fs units.Frequency, bpm float64, seed int64) *ECGSynth {
	return &ECGSynth{
		SampleRate: fs,
		HeartRate:  bpm,
		NoiseMV:    0.01, // ≈10 µV RMS electrode/amplifier noise
		WanderMV:   0.1,
		rng:        rand.New(rand.NewSource(seed)),
		jitter:     1,
	}
}

// pqrst describes the five Gaussian components of one beat: center (beat
// phase), width (phase), amplitude (mV). Values follow the standard ECGSYN
// morphology.
var pqrst = [5]struct{ c, w, a float64 }{
	{0.15, 0.025, 0.12},   // P
	{0.245, 0.010, -0.1},  // Q
	{0.265, 0.012, 1.2},   // R
	{0.285, 0.010, -0.25}, // S
	{0.45, 0.045, 0.35},   // T
}

// Next returns the next sample in millivolts.
func (g *ECGSynth) Next() float64 {
	v := 0.0
	for _, k := range pqrst {
		d := g.phase - k.c
		v += k.a * math.Exp(-d*d/(2*k.w*k.w))
	}
	v += g.WanderMV * math.Sin(2*math.Pi*g.wanderPh)
	v += g.NoiseMV * g.rng.NormFloat64()

	beatLen := 60 / g.HeartRate * g.jitter // seconds per beat
	dt := 1 / float64(g.SampleRate)
	g.phase += dt / beatLen
	if g.phase >= 1 {
		g.phase -= 1
		// 4% RR-interval jitter per beat (heart-rate variability).
		g.jitter = 1 + 0.04*g.rng.NormFloat64()
		if g.jitter < 0.7 {
			g.jitter = 0.7
		}
	}
	g.wanderPh += dt * 0.25 // 0.25 Hz respiration wander
	if g.wanderPh >= 1 {
		g.wanderPh -= 1
	}
	return v
}

// Samples returns the next n samples.
func (g *ECGSynth) Samples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// AudioSynth generates speech-like audio: voiced segments (harmonic pulse
// train shaped by slowly moving formant-ish filters) alternating with
// pauses — enough structure for VAD and ADPCM benchmarks. Output in [-1,1].
type AudioSynth struct {
	SampleRate units.Frequency
	rng        *rand.Rand
	voiced     bool
	remain     int
	pitchHz    float64
	phase      float64
	lp1, lp2   float64
	env        float64
}

// NewAudioSynth returns a generator at fs.
func NewAudioSynth(fs units.Frequency, seed int64) *AudioSynth {
	return &AudioSynth{SampleRate: fs, rng: rand.New(rand.NewSource(seed)), pitchHz: 120}
}

// Next returns the next sample.
func (g *AudioSynth) Next() float64 {
	if g.remain <= 0 {
		g.voiced = !g.voiced
		mean := 0.4 // seconds of speech burst
		if !g.voiced {
			mean = 0.3 // pause
		}
		g.remain = int(mean * (0.5 + g.rng.Float64()) * float64(g.SampleRate))
		if g.remain < 1 {
			g.remain = 1
		}
		g.pitchHz = 90 + 80*g.rng.Float64()
	}
	g.remain--
	target := 0.0
	if g.voiced {
		target = 0.5
	}
	alpha := 1 / (0.02 * float64(g.SampleRate))
	g.env += alpha * (target - g.env)

	// Glottal-ish pulse train plus aspiration noise.
	g.phase += g.pitchHz / float64(g.SampleRate)
	if g.phase >= 1 {
		g.phase -= 1
	}
	pulse := math.Pow(1-g.phase, 6) // sharp decay each period
	s := 0.8*pulse + 0.2*g.rng.NormFloat64()
	// Two cascaded one-poles as a crude vocal tract.
	g.lp1 += 0.35 * (s - g.lp1)
	g.lp2 += 0.35 * (g.lp1 - g.lp2)
	v := g.env * g.lp2 * 2
	return units.Clamp(v, -1, 1)
}

// Voiced reports whether the generator is currently in a speech burst.
func (g *AudioSynth) Voiced() bool { return g.voiced }

// VideoSynth generates 8-bit grayscale frames with temporal coherence:
// a static gradient background, a moving bright square, and per-pixel
// noise. Consecutive frames differ only around the moving object, giving
// DCT/MJPEG codecs realistic spatial redundancy.
type VideoSynth struct {
	W, H  int
	rng   *rand.Rand
	objX  float64
	objY  float64
	velX  float64
	velY  float64
	frame int
}

// NewVideoSynth returns a generator of w×h frames.
func NewVideoSynth(w, h int, seed int64) *VideoSynth {
	return &VideoSynth{
		W: w, H: h,
		rng:  rand.New(rand.NewSource(seed)),
		objX: float64(w) / 4, objY: float64(h) / 4,
		velX: float64(w) / 40, velY: float64(h) / 60,
	}
}

// NextFrame returns the next frame as a row-major W×H byte slice.
func (g *VideoSynth) NextFrame() []byte {
	f := make([]byte, g.W*g.H)
	side := g.W / 8
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			// Smooth diagonal gradient background.
			v := 40 + 120*float64(x+y)/float64(g.W+g.H)
			// Moving bright object.
			if math.Abs(float64(x)-g.objX) < float64(side) &&
				math.Abs(float64(y)-g.objY) < float64(side) {
				v = 220
			}
			// Mild sensor noise.
			v += 3 * g.rng.NormFloat64()
			f[y*g.W+x] = byte(units.Clamp(v, 0, 255))
		}
	}
	// Bounce the object around the frame.
	g.objX += g.velX
	g.objY += g.velY
	if g.objX < 0 || g.objX > float64(g.W) {
		g.velX = -g.velX
		g.objX += 2 * g.velX
	}
	if g.objY < 0 || g.objY > float64(g.H) {
		g.velY = -g.velY
		g.objY += 2 * g.velY
	}
	g.frame++
	return f
}

// Quantize converts float samples to signed 16-bit codes given a full-scale
// range, saturating out-of-range values — the ADC every leaf node applies
// before any digital processing.
func Quantize(samples []float64, fullScale float64) []int16 {
	return QuantizeBits(samples, fullScale, 16)
}

// QuantizeBits quantizes at an explicit ADC resolution (e.g. 12 bits for
// the ECG patch AFE): codes span ±(2^(bits-1)−1). The result is still
// carried in int16.
func QuantizeBits(samples []float64, fullScale float64, bits int) []int16 {
	out := make([]int16, len(samples))
	if fullScale <= 0 || bits < 2 || bits > 16 {
		return out
	}
	max := float64(int(1)<<(bits-1)) - 1
	for i, s := range samples {
		v := s / fullScale * max
		out[i] = int16(units.Clamp(v, -max-1, max))
	}
	return out
}
