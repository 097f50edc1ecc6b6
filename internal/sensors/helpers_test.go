package sensors

// Generators, sensors and helpers that only these tests use; no binary
// links them. Dequantize is the inverse the Quantize round-trip tests
// hold the encoder to.

import (
	"fmt"
	"math"
	"math/rand"

	"wiban/internal/units"
)

// EMGSynth generates surface EMG: bandlimited noise gated by an activation
// envelope that switches between rest and contraction bursts.
type EMGSynth struct {
	SampleRate units.Frequency
	rng        *rand.Rand
	active     bool
	remain     int     // samples left in current state
	lp         float64 // one-pole high-frequency shaping state
	env        float64 // smoothed activation envelope
}

// NewEMGSynth returns a generator at fs.
func NewEMGSynth(fs units.Frequency, seed int64) *EMGSynth {
	return &EMGSynth{SampleRate: fs, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next sample in millivolts.
func (g *EMGSynth) Next() float64 {
	if g.remain <= 0 {
		g.active = !g.active
		mean := 0.6 // seconds of contraction
		if !g.active {
			mean = 1.5 // seconds of rest
		}
		d := mean * (0.5 + g.rng.Float64())
		g.remain = int(d * float64(g.SampleRate))
		if g.remain < 1 {
			g.remain = 1
		}
	}
	g.remain--
	target := 0.02 // resting tone, mV RMS
	if g.active {
		target = 0.8
	}
	// Smooth the envelope (~30 ms attack/release).
	alpha := 1 / (0.03 * float64(g.SampleRate))
	g.env += alpha * (target - g.env)
	// Shape white noise toward the 50–150 Hz EMG band with a simple
	// differenced one-pole filter.
	w := g.rng.NormFloat64()
	g.lp += 0.25 * (w - g.lp)
	return g.env * (w - g.lp)
}

// Samples returns the next n samples.
func (g *EMGSynth) Samples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Active reports whether the generator is currently in a contraction burst
// (ground truth for detector tests).
func (g *EMGSynth) Active() bool { return g.active }

// IMUWalkSynth generates a 3-axis accelerometer trace of walking: a gait
// fundamental with harmonics on the vertical axis, sway on the lateral
// axes, plus noise. Units are m/s² around gravity-removed zero.
type IMUWalkSynth struct {
	SampleRate units.Frequency
	StepHz     float64
	rng        *rand.Rand
	t          float64
}

// NewIMUWalkSynth returns a generator at fs with ~1.8 Hz steps.
func NewIMUWalkSynth(fs units.Frequency, seed int64) *IMUWalkSynth {
	return &IMUWalkSynth{SampleRate: fs, StepHz: 1.8, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next (x, y, z) sample.
func (g *IMUWalkSynth) Next() (x, y, z float64) {
	w := 2 * math.Pi * g.StepHz * g.t
	z = 3.0*math.Sin(w) + 1.2*math.Sin(2*w+0.7) + 0.4*math.Sin(3*w+1.9)
	x = 0.8 * math.Sin(w/2+0.3) // lateral sway at half step rate
	y = 0.5 * math.Sin(w+1.1)
	x += 0.15 * g.rng.NormFloat64()
	y += 0.15 * g.rng.NormFloat64()
	z += 0.25 * g.rng.NormFloat64()
	g.t += 1 / float64(g.SampleRate)
	return
}

// Frame returns the current frame index.
func (g *VideoSynth) Frame() int { return g.frame }

// Dequantize reverses Quantize.
func Dequantize(codes []int16, fullScale float64) []float64 {
	out := make([]float64, len(codes))
	for i, c := range codes {
		out[i] = float64(c) / 32767 * fullScale
	}
	return out
}

// String names the class.
func (c Class) String() string {
	switch c {
	case Temperature:
		return "temperature"
	case Biopotential:
		return "biopotential"
	case IMU:
		return "IMU"
	case PPG:
		return "PPG"
	case Audio:
		return "audio"
	case Video:
		return "video"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// EnergyPerSample returns the AFE energy per acquired sample across all
// channels.
func (s *Sensor) EnergyPerSample() units.Energy {
	if s.SampleRate <= 0 {
		return 0
	}
	return units.Energy(float64(s.AFEPower) / float64(s.SampleRate))
}

// String summarizes the sensor.
func (s *Sensor) String() string {
	return fmt.Sprintf("%s (%s, %v, %v)", s.Name, s.Class, s.DataRate(), s.AFEPower)
}

// EMGBand returns a limb EMG band: 1 kHz × 12 bit.
func EMGBand() *Sensor {
	return &Sensor{
		Name: "EMG band", Class: Biopotential,
		SampleRate: 1 * units.Kilohertz, BitsPerSample: 12, Channels: 1,
		AFEPower: 25 * units.Microwatt,
	}
}

// PPGRing returns a ring photoplethysmograph: LED drive dominates.
func PPGRing() *Sensor {
	return &Sensor{
		Name: "PPG ring", Class: PPG,
		SampleRate: 100 * units.Hertz, BitsPerSample: 16, Channels: 2,
		AFEPower: 250 * units.Microwatt,
	}
}

// Camera720p returns a 1280×720 × 8-bit camera at 30 fps (AR-glasses
// class).
func Camera720p() *Sensor {
	return &Sensor{
		Name: "720p camera", Class: Video,
		SampleRate: 30 * units.Hertz, BitsPerSample: 8, Channels: 1280 * 720,
		AFEPower: 140 * units.Milliwatt,
	}
}

// Catalog returns every modeled sensor, ordered by raw data rate.
func Catalog() []*Sensor {
	return []*Sensor{
		TempSensor(), ECGPatch(), PPGRing(), IMU6Axis(), EMGBand(),
		EEGHeadband(), MicMono(), CameraQVGA(), Camera720p(),
	}
}
