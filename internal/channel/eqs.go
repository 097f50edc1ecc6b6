// Package channel models the two physical communication channels the paper
// contrasts: the electro-quasistatic human-body channel that Wi-R rides on,
// and the radiative RF path that BLE uses.
//
// The EQS model is the lumped capacitive circuit of Maity et al., "Bio-
// Physical Modeling, Characterization, and Optimization of Electro-
// Quasistatic Human Body Communication" (IEEE TBME 2018), which the paper
// cites as the foundation of Wi-R: the transmitter couples a low-frequency
// (≤ 30 MHz) electric field onto the conductive body, the return path closes
// capacitively through earth ground, and a high-impedance voltage-mode
// receiver observes a frequency-flat, whole-body channel at around
// -60 dB. Terminating the same channel in 50 Ω (the RF habit) instead
// yields a first-order high-pass response that throws away the entire EQS
// band — which is precisely the ablation the paper's "is RF the right
// technology?" section argues.
package channel

import (
	"math"
	"math/cmplx"

	"wiban/internal/units"
)

// EQSBody is the lumped-element electro-quasistatic body channel.
//
// Circuit (voltage-mode EQS-HBC, TBME'18):
//
//	Vtx ──Celec──●── body (conductor) ──Celec──●──┬── Vrx
//	             │                               CL ║ RL
//	            CB (body↔earth)                     │
//	             │                               RX gnd
//	TX gnd ──CGtx──╥── earth ground ──╥──CGrx──────┘
//
// The forward coupling divider is CGtx/(CGtx+CB); the receive-side divider
// is the series return capacitance against the receiver input impedance.
type EQSBody struct {
	// CBody is the body-to-earth capacitance (≈ 150 pF for a standing
	// adult; TBME'18).
	CBody units.Capacitance
	// CGTx and CGRx are the transmitter/receiver ground-plate return-path
	// capacitances to earth. Small wearables have ≈ 1 pF plates; larger
	// hub devices (smartwatch, headset) couple more strongly.
	CGTx, CGRx units.Capacitance
	// CElec is the electrode-to-skin coupling capacitance (hundreds of pF
	// for a worn dry electrode).
	CElec units.Capacitance
	// CLoad is the receiver input capacitance.
	CLoad units.Capacitance
	// RLoad is the receiver termination. ≥ ~1 MΩ is the high-impedance
	// voltage mode the paper advocates; 50 Ω reproduces the power-matched
	// RF habit that destroys the EQS band (ablation ABL-1).
	RLoad units.Resistance
	// FEQSLimit is the frequency above which the quasistatic assumption
	// fails and the body begins to radiate (paper: ≤ 30 MHz).
	FEQSLimit units.Frequency
	// LeakR0 is the effective dipole radius governing off-body leakage:
	// the quasistatic field decays as (LeakR0/(LeakR0+d))³ with distance d
	// from the body surface (Das et al., Sci. Rep. 2019 measured
	// detectability collapsing within ≈ 0.15 m).
	LeakR0 units.Distance
	// BodyPathLossDB is the small additional on-body loss per meter of
	// body path (the channel is whole-body but not perfectly uniform).
	BodyPathLossDB float64
}

// DefaultEQSBody returns the TBME'18-style parameterization used across the
// benchmarks: 150 pF body, 1 pF wearable ground plates, 470 pF electrodes,
// 5 pF / 10 MΩ voltage-mode receiver, 30 MHz EQS limit.
func DefaultEQSBody() *EQSBody {
	return &EQSBody{
		CBody:          150 * units.Picofarad,
		CGTx:           1.0 * units.Picofarad,
		CGRx:           1.0 * units.Picofarad,
		CElec:          470 * units.Picofarad,
		CLoad:          5 * units.Picofarad,
		RLoad:          10 * units.Megaohm,
		FEQSLimit:      30 * units.Megahertz,
		LeakR0:         5 * units.Centimeter,
		BodyPathLossDB: 1.5,
	}
}

// seriesC returns the series combination of two capacitances.
func seriesC(a, b units.Capacitance) units.Capacitance {
	if a <= 0 || b <= 0 {
		return 0
	}
	return a * b / (a + b)
}

// returnC is the receive-side series return capacitance: electrode coupling
// in series with (CGRx in series with CBody).
func (m *EQSBody) returnC() units.Capacitance {
	return seriesC(m.CElec, seriesC(m.CGRx, m.CBody))
}

// TransferV returns the complex voltage transfer function Vrx/Vtx at
// frequency f.
func (m *EQSBody) TransferV(f units.Frequency) complex128 {
	if f <= 0 {
		return 0
	}
	w := 2 * math.Pi * float64(f)

	// Forward coupling: the TX ground plate must displace current through
	// the body-to-earth capacitance; the divider is CGtx/(CGtx+CB).
	fwd := complex(float64(m.CGTx)/float64(m.CGTx+m.CBody), 0)

	// Receive divider: series return capacitance Cser against the receiver
	// input impedance ZL = RL ∥ 1/(jωCL).
	cser := m.returnC()
	if cser <= 0 {
		return 0
	}
	zser := complex(0, -1/(w*float64(cser)))
	zcl := complex(0, -1/(w*float64(m.CLoad)))
	zrl := complex(float64(m.RLoad), 0)
	zl := zrl * zcl / (zrl + zcl)
	rx := zl / (zl + zser)

	return fwd * rx
}

// GainDB returns the on-body channel voltage gain in dB at frequency f
// (negative values are loss). The EQS channel is whole-body: the result is
// independent of where on the body the two devices sit, up to
// BodyPathLossDB per meter (see GainAtDB).
func (m *EQSBody) GainDB(f units.Frequency) float64 {
	h := cmplx.Abs(m.TransferV(f))
	if h == 0 {
		return math.Inf(-1)
	}
	return units.DBV(h)
}

// GainAtDB returns the channel gain including the mild on-body distance
// dependence for a body path of length d (1–2 m spans the whole body).
func (m *EQSBody) GainAtDB(f units.Frequency, d units.Distance) float64 {
	return m.GainDB(f) - m.BodyPathLossDB*float64(d)
}

// HighPassCorner returns the low-frequency -3 dB corner set by the
// termination resistance against the total capacitance at the receiver
// input. In voltage mode this sits at a few kHz; in 50 Ω mode it moves
// above the entire EQS band, which is the quantitative form of the paper's
// "RF is the wrong technology" argument.
func (m *EQSBody) HighPassCorner() units.Frequency {
	ctot := m.returnC() + m.CLoad
	if m.RLoad <= 0 || ctot <= 0 {
		return 0
	}
	return units.Frequency(1 / (2 * math.Pi * float64(m.RLoad) * float64(ctot)))
}

// LeakageGainDB returns the attacker-observable coupling at distance d from
// the body surface, at frequency f. The quasistatic field of the body
// (an electrically small source) collapses as the cube of distance, which
// is what confines Wi-R to the paper's "personal bubble": at d = 0 the
// attacker sees the on-body gain; by d ≈ 0.15 m the pickup has fallen
// ~30 dB and keeps collapsing 60 dB/decade.
func (m *EQSBody) LeakageGainDB(f units.Frequency, d units.Distance) float64 {
	if d < 0 {
		d = 0
	}
	geom := float64(m.LeakR0) / float64(m.LeakR0+d)
	return m.GainDB(f) + units.DBV(geom*geom*geom)
}
