// Package sensors models the leaf-node sensor front-ends of the IoB
// architecture — what the paper calls the distributed "sensors and
// actuators" that should run at tens of microwatts — and generates
// synthetic versions of their signals for the compression and in-sensor-
// analytics pipelines.
//
// Each sensor class carries a sample-format-derived raw data rate and an
// analog-front-end (AFE + ADC) power drawn from the survey the paper's
// Fig. 3 cites (Datta et al., BioCAS 2023): biopotential AFEs in the
// single-digit µW to tens of µW, IMUs at tens of µW, PPG dominated by LED
// drive, microphones at hundreds of µW, and image sensors in the tens of
// milliwatts.
package sensors

import (
	"wiban/internal/units"
)

// Class is a sensor family with a characteristic power/rate envelope.
type Class int

// Sensor classes, ordered roughly by data rate.
const (
	Temperature Class = iota
	Biopotential
	IMU
	Audio
	Video
)

// Sensor is a concrete sensor configuration on a leaf node.
type Sensor struct {
	// Name identifies the configuration ("ECG patch", "QVGA camera").
	Name string
	// Class is the sensor family.
	Class Class
	// SampleRate is samples per second per channel (frames per second for
	// video).
	SampleRate units.Frequency
	// BitsPerSample is the ADC resolution (bits per pixel for video).
	BitsPerSample int
	// Channels is the channel count (electrodes, axes; pixels per frame
	// for video).
	Channels int
	// AFEPower is the sensing power: analog front-end, bias, ADC and any
	// LED/illumination — everything the node must spend before a single
	// bit is communicated.
	AFEPower units.Power
}

// DataRate returns the raw (uncompressed) output rate.
func (s *Sensor) DataRate() units.DataRate {
	return units.DataRate(float64(s.SampleRate) * float64(s.BitsPerSample) * float64(s.Channels))
}

// --- Catalog --------------------------------------------------------------

// TempSensor returns a skin-temperature sensor: 1 Hz × 16 bit.
func TempSensor() *Sensor {
	return &Sensor{
		Name: "skin temperature", Class: Temperature,
		SampleRate: 1 * units.Hertz, BitsPerSample: 16, Channels: 1,
		AFEPower: 0.5 * units.Microwatt,
	}
}

// ECGPatch returns a single-lead chest ECG patch: 250 Hz × 12 bit,
// a ~10 µW-class research AFE.
func ECGPatch() *Sensor {
	return &Sensor{
		Name: "ECG patch", Class: Biopotential,
		SampleRate: 250 * units.Hertz, BitsPerSample: 12, Channels: 1,
		AFEPower: 10 * units.Microwatt,
	}
}

// EEGHeadband returns an 8-channel EEG headband: 250 Hz × 16 bit × 8.
func EEGHeadband() *Sensor {
	return &Sensor{
		Name: "EEG headband", Class: Biopotential,
		SampleRate: 250 * units.Hertz, BitsPerSample: 16, Channels: 8,
		AFEPower: 80 * units.Microwatt,
	}
}

// IMU6Axis returns a 6-axis inertial unit at 100 Hz × 16 bit.
func IMU6Axis() *Sensor {
	return &Sensor{
		Name: "6-axis IMU", Class: IMU,
		SampleRate: 100 * units.Hertz, BitsPerSample: 16, Channels: 6,
		AFEPower: 30 * units.Microwatt,
	}
}

// MicMono returns a 16 kHz × 16 bit voice microphone (the audio-input AI
// wearable class: pins, pendants, pocket assistants).
func MicMono() *Sensor {
	return &Sensor{
		Name: "voice microphone", Class: Audio,
		SampleRate: 16 * units.Kilohertz, BitsPerSample: 16, Channels: 1,
		AFEPower: 600 * units.Microwatt,
	}
}

// CameraQVGA returns a 320×240 × 8-bit grayscale camera at 15 fps —
// the first-person-view video node class. Channels carries the pixel
// count so DataRate() reports the raw pixel rate.
func CameraQVGA() *Sensor {
	return &Sensor{
		Name: "QVGA camera", Class: Video,
		SampleRate: 15 * units.Hertz, BitsPerSample: 8, Channels: 320 * 240,
		AFEPower: 35 * units.Milliwatt,
	}
}
