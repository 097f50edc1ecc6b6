package channel

import (
	"math"

	"wiban/internal/units"
)

// Magneto-quasistatic human body communication — the paper's stated future
// direction (§IV-B): "exploring body-assisted communication for implantable
// devices in EQS regime and beyond using Magneto-Quasistatic Human Body
// Communication leveraging the human body's transparency to magnetic
// fields."
//
// The model is two coupled electrically-small coils. The body's
// permeability is ≈ µ0 (tissue is non-magnetic), so — unlike the 2.4 GHz
// RF path, which loses several dB per centimeter of tissue — the MQS link
// sees no tissue absorption at all; what it pays is the near-field
// coupling collapse, k ∝ 1/d³ once the separation exceeds the coil radius.

// MQSCoil is a coil-to-coil magneto-quasistatic link through tissue.
type MQSCoil struct {
	// TXRadius and RXRadius are the coil radii (implant coils are small;
	// a wearable reader coil is larger).
	TXRadius, RXRadius units.Distance
	// TXTurns and RXTurns are the winding counts.
	TXTurns, RXTurns int
	// Freq is the carrier (MQS regime: tens of kHz to a few MHz, below
	// self-resonance and induction-heating limits).
	Freq units.Frequency
	// QTx and QRx are the loaded coil quality factors (resonant
	// operation multiplies the transfer by √(QTx·QRx)).
	QTx, QRx float64
	// LinkMarginDB lumps implementation losses (misalignment, tuning
	// error) as a fixed penalty.
	LinkMarginDB float64
}

// DefaultMQSImplant returns a deep-implant link: a 5 mm implant coil to a
// 20 mm wearable coil at 1 MHz with loaded Q of 10/10 (implant coils are
// heavily loaded and detuned by tissue) and 20 dB of implementation loss
// for misalignment and tuning error.
func DefaultMQSImplant() *MQSCoil {
	return &MQSCoil{
		TXRadius: 5 * units.Millimeter, RXRadius: 20 * units.Millimeter,
		TXTurns: 10, RXTurns: 5,
		Freq: 1 * units.Megahertz,
		QTx:  10, QRx: 10,
		LinkMarginDB: 20,
	}
}

// CouplingCoefficient returns the magnetic coupling k between the coils at
// a center-to-center distance d along the coil axis (coaxial alignment):
//
//	k = (r1²·r2²) / (√(r1·r2) · (d² + r1²)^(3/2) · √(r2))   [standard
//	coaxial small-coil approximation, reduces to (r/d)³ for d ≫ r]
//
// The value is clamped to 1.
func (m *MQSCoil) CouplingCoefficient(d units.Distance) float64 {
	r1, r2 := float64(m.TXRadius), float64(m.RXRadius)
	if r1 <= 0 || r2 <= 0 {
		return 0
	}
	dd := float64(d)
	if dd < 0 {
		dd = 0
	}
	num := r1 * r1 * r2 * r2
	den := math.Sqrt(r1*r2) * math.Pow(dd*dd+r1*r1, 1.5) * math.Sqrt(r2)
	if den == 0 {
		return 1
	}
	k := num / den
	if k > 1 {
		k = 1
	}
	return k
}

// GainDB returns the resonant power transfer gain of the link at distance
// d: k²·QTx·QRx capped at 0 dB, minus the implementation margin. Tissue in
// the path contributes nothing — the body is transparent to the magnetic
// field, which is the whole point.
func (m *MQSCoil) GainDB(d units.Distance) float64 {
	k := m.CouplingCoefficient(d)
	if k == 0 {
		return math.Inf(-1)
	}
	eta := k * k * m.QTx * m.QRx
	if eta > 1 {
		eta = 1
	}
	return units.DB(eta) - m.LinkMarginDB
}

// --- Tissue absorption for the RF comparison ------------------------------

// TissueLossDBPerCm is the microwave absorption of muscle-like tissue at
// 2.4 GHz (≈ 3 dB/cm one-way; the conductive saltwater body the paper
// describes).
const TissueLossDBPerCm = 3.0

// TissueInterfaceLossDB is the reflection/mismatch loss at the air-tissue
// boundary for a 2.4 GHz link (high-permittivity tissue reflects a large
// fraction of the incident wave).
const TissueInterfaceLossDB = 10.0

// GainThroughTissueDB returns the RF path gain when depth of the path is
// through tissue (an implant link): Friis over the total distance, plus
// tissue absorption over the implanted depth, plus the boundary
// reflection loss. This is what makes 2.4 GHz radios a poor fit for deep
// implants, motivating the MQS alternative.
func (m *RFPath) GainThroughTissueDB(total, depth units.Distance) float64 {
	if depth > total {
		depth = total
	}
	return -m.FreeSpacePathLossDB(total) - TissueLossDBPerCm*float64(depth)/0.01 -
		TissueInterfaceLossDB
}
