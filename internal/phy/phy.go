// Package phy models the physical layer of both link families: modulation,
// thermal noise, bit-error rate, packet error rate and link budgets.
//
// Wi-R-class EQS-HBC transceivers use simple wideband signaling (OOK or
// BPSK-like voltage-mode signaling without a power amplifier), while BLE
// uses GFSK at 2.4 GHz. Both reduce, for our purposes, to a BER-vs-SNR
// curve and a link budget; the packet error rate then drives the MAC and
// network simulation retransmission behaviour.
package phy

import (
	"math"

	"wiban/internal/units"
)

// BoltzmannK is the Boltzmann constant in J/K.
const BoltzmannK = 1.380649e-23

// RoomTempK is the reference temperature for noise calculations.
const RoomTempK = 290.0

// Modulation is a digital modulation scheme with an analytic BER curve.
type Modulation int

// Supported modulations.
const (
	// OOK is on-off keying with non-coherent envelope detection — the
	// workhorse of ultra-low-power EQS-HBC transmitters (BodyWire-class).
	OOK Modulation = iota
	// BPSK is coherent binary phase-shift keying, the best-case binary
	// curve, used by higher-end HBC designs.
	BPSK
	// FSK2 is non-coherent binary FSK.
	FSK2
	// GFSK is the Gaussian-filtered FSK BLE uses; modeled as non-coherent
	// FSK with a 1 dB filtering penalty.
	GFSK
)

// qfunc is the Gaussian tail probability Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BER returns the bit error probability at the given Eb/N0 (linear, not
// dB). All curves are the standard textbook results.
func (m Modulation) BER(ebn0 float64) float64 {
	if ebn0 <= 0 {
		return 0.5
	}
	switch m {
	case BPSK:
		return qfunc(math.Sqrt(2 * ebn0))
	case OOK:
		// Non-coherent OOK with optimal threshold: ½·exp(-Eb/2N0).
		return 0.5 * math.Exp(-ebn0/2)
	case FSK2:
		return 0.5 * math.Exp(-ebn0/2)
	case GFSK:
		// Gaussian filtering costs ≈ 1 dB against ideal non-coherent FSK.
		return 0.5 * math.Exp(-ebn0/(2*units.FromDB(1)))
	default:
		return 0.5
	}
}

// RequiredEbN0 returns the linear Eb/N0 needed to reach a target BER,
// found by bisection on the (monotone) BER curve.
func (m Modulation) RequiredEbN0(targetBER float64) float64 {
	if targetBER >= 0.5 {
		return 0
	}
	lo, hi := 1e-3, 1e6
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if m.BER(mid) > targetBER {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// NoiseFloor returns the thermal noise power kTB scaled by a receiver noise
// figure (dB) over bandwidth bw.
func NoiseFloor(bw units.Frequency, noiseFigureDB float64) units.Power {
	return units.Power(BoltzmannK * RoomTempK * float64(bw) * units.FromDB(noiseFigureDB))
}

// Link is a fully specified point-to-point physical link.
type Link struct {
	Name       string
	Mod        Modulation
	TXPower    units.Power     // power delivered to the channel input
	GainDB     float64         // channel gain (negative = loss)
	Rate       units.DataRate  // signaling bit rate
	Bandwidth  units.Frequency // receiver noise bandwidth
	NoiseFigDB float64         // receiver noise figure
}

// RXPower returns the received signal power.
func (l *Link) RXPower() units.Power {
	return units.Power(float64(l.TXPower) * units.FromDB(l.GainDB))
}

// SNR returns the received signal-to-noise ratio (linear) in the receiver
// bandwidth.
func (l *Link) SNR() float64 {
	n := NoiseFloor(l.Bandwidth, l.NoiseFigDB)
	if n <= 0 {
		return math.Inf(1)
	}
	return float64(l.RXPower()) / float64(n)
}

// EbN0 returns the energy-per-bit to noise-density ratio (linear):
// SNR scaled by bandwidth-to-bitrate.
func (l *Link) EbN0() float64 {
	if l.Rate <= 0 {
		return math.Inf(1)
	}
	return l.SNR() * float64(l.Bandwidth) / float64(l.Rate)
}

// BER returns the link's bit error rate.
func (l *Link) BER() float64 { return l.Mod.BER(l.EbN0()) }

// PER returns the packet error rate for an n-bit packet assuming
// independent bit errors: 1 - (1-BER)^n, computed stably via expm1/log1p.
func (l *Link) PER(bits int) float64 {
	ber := l.BER()
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return -math.Expm1(float64(bits) * math.Log1p(-ber))
}

// MarginDB returns the link margin in dB relative to the Eb/N0 needed for
// targetBER. Positive margin means the link closes.
func (l *Link) MarginDB(targetBER float64) float64 {
	need := l.Mod.RequiredEbN0(targetBER)
	have := l.EbN0()
	if need <= 0 {
		return math.Inf(1)
	}
	return units.DB(have / need)
}

// Closes reports whether the link supports targetBER.
func (l *Link) Closes(targetBER float64) bool {
	return l.BER() <= targetBER
}

// ShannonCapacity returns the channel capacity B·log2(1+SNR) — a sanity
// ceiling no rate claim may exceed.
func (l *Link) ShannonCapacity() units.DataRate {
	return units.DataRate(float64(l.Bandwidth) * math.Log2(1+l.SNR()))
}

// MaxRateForBER returns the highest bit rate (≤ the signaling bandwidth)
// at which the link still meets targetBER, by bisection: lowering the rate
// raises Eb/N0.
func (l *Link) MaxRateForBER(targetBER float64) units.DataRate {
	need := l.Mod.RequiredEbN0(targetBER)
	if need <= 0 {
		return l.Rate
	}
	// Eb/N0 = SNR·B/R ≥ need  ⇒  R ≤ SNR·B/need.
	r := l.SNR() * float64(l.Bandwidth) / need
	if r < 0 {
		return 0
	}
	cap := float64(l.ShannonCapacity())
	if r > cap {
		r = cap
	}
	return units.DataRate(r)
}
