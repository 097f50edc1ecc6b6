package units

// Conversions that only these tests use; no binary links them.

import "math"

// Years reports the duration in Julian years.
func (d Duration) Years() float64 { return float64(d) / float64(Year) }

// PowerAt returns the power drawn when transporting rate r at efficiency eb.
func (eb EnergyPerBit) PowerAt(r DataRate) Power {
	return Power(float64(eb) * float64(r))
}

// FromDBV converts decibels to a voltage (amplitude) ratio.
func FromDBV(db float64) float64 { return math.Pow(10, db/20) }

// BitTime returns the duration of a single bit at rate r.
func (r DataRate) BitTime() Duration {
	if r <= 0 {
		return Duration(math.Inf(1))
	}
	return Duration(1 / float64(r))
}

// String renders the capacitance with an SI prefix (e.g. "150 pF").
func (c Capacitance) String() string { return siFormat(float64(c), "F") }
