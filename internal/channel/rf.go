package channel

import (
	"math"

	"wiban/internal/units"
)

// SpeedOfLight in meters per second.
const SpeedOfLight = 299792458.0

// RFPath is a radiative free-space path with an additional fixed
// body-shadowing loss, modeling a 2.4 GHz BLE link between wearables.
//
// The paper's argument against RF for body-area networks is geometric: a
// radio "radiates the signal in a large room scale bubble", spending power
// to cover 5–10 m when the channel of interest is 1–2 m of body. Friis
// propagation plus the strong shadowing of the conductive body (the body
// absorbs microwaves — around-the-torso links routinely see 20–40 dB of
// extra loss) captures both halves of that argument.
type RFPath struct {
	// Freq is the carrier frequency (2.44 GHz for BLE).
	Freq units.Frequency
	// BodyShadowDB is extra loss when the body occludes the link
	// (creeping-wave / absorption loss for around-body links).
	BodyShadowDB float64
	// RefDistance guards the near-field singularity of the Friis formula;
	// distances below it are clamped.
	RefDistance units.Distance
}

// DefaultBLEPath returns a 2.44 GHz path with 25 dB of on-body shadowing,
// representative of a chest-to-wrist BLE link.
func DefaultBLEPath() *RFPath {
	return &RFPath{
		Freq:         2.44 * units.Gigahertz,
		BodyShadowDB: 25,
		RefDistance:  5 * units.Centimeter,
	}
}

// FreeSpacePathLossDB returns the Friis free-space path loss in dB at
// distance d: 20·log10(4πdf/c).
func (m *RFPath) FreeSpacePathLossDB(d units.Distance) float64 {
	if d < m.RefDistance {
		d = m.RefDistance
	}
	return 20 * math.Log10(4*math.Pi*float64(d)*float64(m.Freq)/SpeedOfLight)
}

// GainDB returns the link gain (negative of total loss) for an on-body link
// of length d, including body shadowing.
func (m *RFPath) GainDB(d units.Distance) float64 {
	return -m.FreeSpacePathLossDB(d) - m.BodyShadowDB
}

// CongestionLossDB is the load-aware RF loss curve: the equivalent
// link-budget penalty when co-channel neighbors occupy a fraction util of
// the shared band. Aggregate interference raises the receiver's
// noise-plus-interference floor, and the SINR — hence the effective link
// budget — degrades by 10·log10(1/(1−util)): 0 dB on an idle band, 3 dB
// at 50% occupancy, unbounded as the band saturates (clamped at 99%
// occupancy to keep the curve finite). Body-coupled EQS/MQS channels have
// no such term — their medium is the wearer's own body, not a shared
// band — which is the fleet-density half of the paper's RF argument; the
// collision half lives in internal/spectrum.
func (m *RFPath) CongestionLossDB(util float64) float64 {
	if util <= 0 {
		return 0
	}
	if util > 0.99 {
		util = 0.99
	}
	return -10 * math.Log10(1-util)
}

// RangeForLossDB returns the distance at which free-space path loss reaches
// lossDB — the radius of the paper's "room scale bubble" for a given link
// budget.
func (m *RFPath) RangeForLossDB(lossDB float64) units.Distance {
	return units.Distance(SpeedOfLight / (4 * math.Pi * float64(m.Freq)) *
		math.Pow(10, lossDB/20))
}
