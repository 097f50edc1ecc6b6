package isa

import (
	"math"

	"wiban/internal/units"
)

// Event detectors: the microwatt-class decision logic that lets a leaf node
// transmit events instead of raw streams.

// RPeakDetector finds ECG R-peaks with a Pan-Tompkins-style pipeline:
// band-pass around the QRS band, differentiate, square, integrate over a
// moving window, then adaptive thresholding with a refractory period.
type RPeakDetector struct {
	fs         units.Frequency
	bp         *Biquad
	integ      *MovingAverage
	prev       float64 // previous band-passed sample (for derivative)
	thresh     float64
	refractory int // samples remaining before next detection allowed
	index      int
	lastPeak   int
	peaks      []int
}

// NewRPeakDetector returns a detector for ECG sampled at fs.
func NewRPeakDetector(fs units.Frequency) *RPeakDetector {
	winSamples := int(0.15 * float64(fs)) // 150 ms integration window
	if winSamples < 1 {
		winSamples = 1
	}
	return &RPeakDetector{
		fs:    fs,
		bp:    NewBandPass(fs, 10*units.Hertz, 0.7), // QRS energy 5–15 Hz
		integ: NewMovingAverage(winSamples),
		// Threshold adapts from the signal; start permissive.
		thresh:   1e-6,
		lastPeak: -1,
	}
}

// Process consumes one sample (millivolts) and reports whether an R-peak
// fired at this sample.
func (d *RPeakDetector) Process(x float64) bool {
	f := d.bp.Process(x)
	deriv := f - d.prev
	d.prev = f
	e := d.integ.Process(deriv * deriv)

	// Exponentially adapt the threshold toward half the running peak
	// energy.
	if e > d.thresh {
		d.thresh += 0.05 * (e - d.thresh)
	} else {
		d.thresh += 0.0005 * (e/2 - d.thresh)
	}

	fired := false
	if d.refractory > 0 {
		d.refractory--
	} else if e > d.thresh*0.8 && e > 1e-9 {
		fired = true
		d.peaks = append(d.peaks, d.index)
		d.lastPeak = d.index
		d.refractory = int(0.25 * float64(d.fs)) // 250 ms refractory
	}
	d.index++
	return fired
}

// Peaks returns the detected peak sample indices.
func (d *RPeakDetector) Peaks() []int { return d.peaks }

// HeartRateBPM estimates heart rate from the median RR interval of the
// last few detections; it returns 0 until two peaks have been seen.
func (d *RPeakDetector) HeartRateBPM() float64 {
	n := len(d.peaks)
	if n < 2 {
		return 0
	}
	// Median of up to the last 8 RR intervals.
	start := n - 9
	if start < 0 {
		start = 0
	}
	var rrs []float64
	for i := start + 1; i < n; i++ {
		rrs = append(rrs, float64(d.peaks[i]-d.peaks[i-1]))
	}
	// Insertion sort (tiny slice).
	for i := 1; i < len(rrs); i++ {
		for j := i; j > 0 && rrs[j] < rrs[j-1]; j-- {
			rrs[j], rrs[j-1] = rrs[j-1], rrs[j]
		}
	}
	med := rrs[len(rrs)/2]
	if med <= 0 {
		return 0
	}
	return 60 * float64(d.fs) / med
}

// VAD is a frame-energy voice-activity detector with a min-tracking noise
// floor.
type VAD struct {
	frameLen int
	ratio    float64 // speech threshold vs noise floor
	buf      []float64
	floor    float64
	active   bool
	frames   int
	speech   int
}

// NewVAD returns a detector at fs with 20 ms frames.
func NewVAD(fs units.Frequency) *VAD {
	fl := int(0.02 * float64(fs))
	if fl < 1 {
		fl = 1
	}
	return &VAD{frameLen: fl, ratio: 6, floor: math.MaxFloat64}
}

// Process consumes one sample and returns the current (frame-held) speech
// decision.
func (v *VAD) Process(x float64) bool {
	v.buf = append(v.buf, x)
	if len(v.buf) < v.frameLen {
		return v.active
	}
	var e float64
	for _, s := range v.buf {
		e += s * s
	}
	e /= float64(len(v.buf))
	v.buf = v.buf[:0]
	v.frames++

	// Noise floor: fast to fall, very slow to rise.
	if e < v.floor {
		v.floor = e
	} else {
		v.floor += 0.01 * (e - v.floor)
	}
	minFloor := 1e-8
	fl := v.floor
	if fl < minFloor {
		fl = minFloor
	}
	v.active = e > v.ratio*fl
	if v.active {
		v.speech++
	}
	return v.active
}

// SpeechFraction returns the fraction of frames classified as speech.
func (v *VAD) SpeechFraction() float64 {
	if v.frames == 0 {
		return 0
	}
	return float64(v.speech) / float64(v.frames)
}
