package channel

// Channel queries that only these tests ask; no binary links them.

import (
	"math"

	"wiban/internal/units"
)

// PassbandGainDB returns the flat mid-band gain, evaluated at the geometric
// middle of the usable EQS band.
func (m *EQSBody) PassbandGainDB() float64 {
	lo := float64(m.HighPassCorner())
	hi := float64(m.FEQSLimit)
	mid := units.Frequency(math.Sqrt(lo * hi * 100)) // a decade above corner
	if mid > m.FEQSLimit {
		mid = m.FEQSLimit / 2
	}
	return m.GainDB(mid)
}

// InEQSRegime reports whether f is within the quasistatic validity region
// (above the receiver high-pass corner, below the 30 MHz EQS limit).
func (m *EQSBody) InEQSRegime(f units.Frequency) bool {
	return f > m.HighPassCorner() && f <= m.FEQSLimit
}

// UsableBandwidth returns the flat EQS passband width.
func (m *EQSBody) UsableBandwidth() units.Frequency {
	c := m.HighPassCorner()
	if c >= m.FEQSLimit {
		return 0
	}
	return m.FEQSLimit - c
}

// InMQSRegime reports whether the carrier is quasistatic for body scales
// (wavelength ≫ body: f ≲ 30 MHz, same criterion as EQS).
func (m *MQSCoil) InMQSRegime() bool {
	return m.Freq > 0 && m.Freq <= 30*units.Megahertz
}

// LeakageGainDB returns the gain toward an off-body eavesdropper at
// distance d. Radiated power follows the same Friis law the intended link
// does — there is no containment — but the eavesdropper is typically not
// shadowed by the body, so the leakage path is *stronger* per meter than
// the intended on-body path.
func (m *RFPath) LeakageGainDB(d units.Distance) float64 {
	return -m.FreeSpacePathLossDB(d)
}

// Wavelength returns the carrier wavelength.
func (m *RFPath) Wavelength() units.Distance {
	return units.Distance(SpeedOfLight / float64(m.Freq))
}
