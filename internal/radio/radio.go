// Package radio provides transceiver energy models for the link
// technologies the paper compares.
//
// A wearable radio's battery impact is set by four numbers: the power it
// burns while actually moving bits, the over-the-air rate it moves them at,
// the floor it burns while asleep, and the overhead it pays to wake up and
// to frame packets. This package captures those numbers for the EQS-HBC
// silicon the paper cites — BodyWire (JSSC'19, 6.3 pJ/bit @ 30 Mbps),
// Sub-µWrComm (JSSC'21, 415 nW @ 10 kbps), the commercial Wi-R transceiver
// (≈ 100 pJ/bit @ 4 Mbps) — and for BLE-class radios, whose ~10 mW active
// power and protocol overheads anchor the paper's ">10× faster, <100× the
// power" comparison.
package radio

import (
	"errors"
	"fmt"
	"math"

	"wiban/internal/units"
)

// ErrRateExceedsGoodput reports an application rate beyond what the
// transceiver can carry even at 100% duty cycle.
var ErrRateExceedsGoodput = errors.New("radio: application rate exceeds link goodput")

// Transceiver is a duty-cycled link transceiver energy model.
type Transceiver struct {
	// Name identifies the device in tables ("Wi-R", "BLE 4.2", ...).
	Name string
	// Tech is the link family, used to pick the matching channel model.
	Tech Technology
	// LinkRate is the instantaneous over-the-air signaling rate.
	LinkRate units.DataRate
	// Goodput is the maximum sustained application-level rate after
	// protocol overhead (headers, inter-frame spaces, acknowledgements).
	Goodput units.DataRate
	// ActiveTX and ActiveRX are the radio power draws while transmitting
	// and receiving.
	ActiveTX, ActiveRX units.Power
	// Sleep is the power floor with the radio idle but retaining state.
	Sleep units.Power
	// WakeEnergy is spent per sleep→active transition (PLL settling,
	// synchronization).
	WakeEnergy units.Energy
	// WakeTime is the sleep→active latency.
	WakeTime units.Duration
	// FrameOverheadBits and MaxPayloadBits describe framing: each frame
	// carries at most MaxPayloadBits and costs FrameOverheadBits extra on
	// the air (plus any acknowledgement time folded into Goodput).
	FrameOverheadBits int
	MaxPayloadBits    int
}

// Technology is the physical link family.
type Technology int

// Link families.
const (
	TechEQS Technology = iota // electro-quasistatic human body communication
	TechRF                    // 2.4 GHz radiative
	TechMQS                   // magneto-quasistatic (implant future work)
)

// String names the technology.
func (t Technology) String() string {
	switch t {
	case TechEQS:
		return "EQS-HBC"
	case TechRF:
		return "RF"
	case TechMQS:
		return "MQS-HBC"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// EnergyPerGoodBit is the marginal energy per delivered application bit at
// full utilization: active TX power divided by goodput. This is the number
// quoted on transceiver spec sheets (pJ/bit).
func (t *Transceiver) EnergyPerGoodBit() units.EnergyPerBit {
	if t.Goodput <= 0 {
		return units.EnergyPerBit(math.Inf(1))
	}
	return units.EnergyPerBit(float64(t.ActiveTX) / float64(t.Goodput))
}

// DutyCycle returns the fraction of time the radio must be active to carry
// appRate.
func (t *Transceiver) DutyCycle(appRate units.DataRate) float64 {
	if t.Goodput <= 0 {
		return 1
	}
	return float64(appRate) / float64(t.Goodput)
}

// AveragePower returns the long-run average radio power needed to carry a
// sustained application rate with wakesPerSecond sleep→active transitions.
// It returns ErrRateExceedsGoodput when the rate cannot be carried.
func (t *Transceiver) AveragePower(appRate units.DataRate, wakesPerSecond float64) (units.Power, error) {
	d := t.DutyCycle(appRate)
	if d > 1 {
		return 0, fmt.Errorf("%w: %v > %v on %s", ErrRateExceedsGoodput, appRate, t.Goodput, t.Name)
	}
	if d < 0 {
		d = 0
	}
	avg := units.Power(d*float64(t.ActiveTX)+(1-d)*float64(t.Sleep)) +
		units.Power(wakesPerSecond*float64(t.WakeEnergy))
	return avg, nil
}

// TimeOnAir returns the air time for a payload of payloadBits, including
// per-frame overhead and fragmentation into MaxPayloadBits frames.
func (t *Transceiver) TimeOnAir(payloadBits int) units.Duration {
	if payloadBits <= 0 {
		return 0
	}
	frames := 1
	if t.MaxPayloadBits > 0 {
		frames = (payloadBits + t.MaxPayloadBits - 1) / t.MaxPayloadBits
	}
	totalBits := payloadBits + frames*t.FrameOverheadBits
	return t.LinkRate.TimeFor(float64(totalBits))
}

// --- Cited transceiver profiles ----------------------------------------

// WiR returns the commercial Wi-R transceiver profile from the paper and
// its white-paper citation: 4 Mbps at ≈ 100 pJ/bit, EQS-HBC.
//
// Active power is 100 pJ/b × 4 Mbps = 400 µW; protocol framing is light
// (no RF synthesizer, no inter-frame RF turnaround), so goodput stays near
// the link rate.
func WiR() *Transceiver {
	return &Transceiver{
		Name:              "Wi-R",
		Tech:              TechEQS,
		LinkRate:          4 * units.Mbps,
		Goodput:           3.9 * units.Mbps,
		ActiveTX:          390 * units.Microwatt,
		ActiveRX:          420 * units.Microwatt,
		Sleep:             100 * units.Nanowatt,
		WakeEnergy:        50 * units.Nanojoule,
		WakeTime:          10 * units.Microsecond,
		FrameOverheadBits: 64,
		MaxPayloadBits:    2048 * 8,
	}
}

// BodyWire returns the research EQS-HBC transceiver of Maity et al.
// (JSSC 2019): 30 Mb/s at 6.3 pJ/bit with time-domain interference
// rejection.
func BodyWire() *Transceiver {
	return &Transceiver{
		Name:              "BodyWire",
		Tech:              TechEQS,
		LinkRate:          30 * units.Mbps,
		Goodput:           29 * units.Mbps,
		ActiveTX:          183 * units.Microwatt, // 6.3 pJ/b × 29 Mbps
		ActiveRX:          210 * units.Microwatt,
		Sleep:             50 * units.Nanowatt,
		WakeEnergy:        20 * units.Nanojoule,
		WakeTime:          5 * units.Microsecond,
		FrameOverheadBits: 64,
		MaxPayloadBits:    2048 * 8,
	}
}

// SubUWrComm returns the authentication-class node of Maity et al.
// (JSSC 2021): 415 nW total at 1–10 kb/s.
func SubUWrComm() *Transceiver {
	return &Transceiver{
		Name:              "Sub-µWrComm",
		Tech:              TechEQS,
		LinkRate:          10 * units.Kbps,
		Goodput:           10 * units.Kbps,
		ActiveTX:          415 * units.Nanowatt,
		ActiveRX:          415 * units.Nanowatt,
		Sleep:             10 * units.Nanowatt,
		WakeEnergy:        1 * units.Nanojoule,
		WakeTime:          100 * units.Microsecond,
		FrameOverheadBits: 16,
		MaxPayloadBits:    256,
	}
}

// BLE42 returns a BLE 4.x radio without data-length extension: 1 Mbps PHY,
// 27-byte PDUs, 150 µs inter-frame spaces and per-packet acknowledgements
// cap the application goodput near 305 kbps, with ≈ 16 mW active power
// (nRF52-class at 0 dBm, 3 V supply) — an effective ≈ 52 nJ per delivered
// bit. This is the radio in virtually every pre-2024 wearable and the
// baseline for the paper's comparison.
func BLE42() *Transceiver {
	return &Transceiver{
		Name:     "BLE 4.2",
		Tech:     TechRF,
		LinkRate: 1 * units.Mbps,
		// Per 27-byte data packet: (10+27) bytes on air = 296 µs, plus
		// T_IFS + empty ACK + T_IFS ≈ 380 µs ⇒ 216 payload bits / 676 µs.
		Goodput:           319 * units.Kbps,
		ActiveTX:          16.5 * units.Milliwatt,
		ActiveRX:          16.5 * units.Milliwatt,
		Sleep:             3 * units.Microwatt,  // SoC sleep w/ RTC, ~1 µA @ 3 V
		WakeEnergy:        8 * units.Microjoule, // connection-event setup
		WakeTime:          400 * units.Microsecond,
		FrameOverheadBits: 80, // preamble + access address + header + CRC
		MaxPayloadBits:    27 * 8,
	}
}

// BLE5DLE returns a BLE 5 radio with data-length extension (251-byte
// PDUs), the most favorable realistic BLE configuration: ≈ 813 kbps
// goodput, ≈ 20 nJ/bit.
func BLE5DLE() *Transceiver {
	return &Transceiver{
		Name:     "BLE 5 (DLE)",
		Tech:     TechRF,
		LinkRate: 1 * units.Mbps,
		// Per 251-byte packet: 261 bytes on air = 2088 µs + 380 µs turnaround
		// ⇒ 2008 payload bits / 2468 µs ≈ 813 kbps.
		Goodput:           813 * units.Kbps,
		ActiveTX:          16.5 * units.Milliwatt,
		ActiveRX:          16.5 * units.Milliwatt,
		Sleep:             3 * units.Microwatt,
		WakeEnergy:        8 * units.Microjoule,
		WakeTime:          400 * units.Microsecond,
		FrameOverheadBits: 80,
		MaxPayloadBits:    251 * 8,
	}
}

// MQSImplant returns a magneto-quasistatic implant transceiver — the
// paper's §IV-B future-work direction ("body-assisted communication for
// implantable devices ... using Magneto-Quasistatic HBC"). No silicon is
// cited, so this profile is a synthetic projection: a 1 MHz coil link at
// 1 Mbps whose driver pays ~1 nJ/bit to overcome the weak deep-tissue
// coupling — an order worse than on-body EQS but two orders better than
// pushing 2.4 GHz RF through tissue.
func MQSImplant() *Transceiver {
	return &Transceiver{
		Name:              "MQS implant",
		Tech:              TechMQS,
		LinkRate:          1 * units.Mbps,
		Goodput:           950 * units.Kbps,
		ActiveTX:          950 * units.Microwatt, // 1 nJ/b × 950 kbps
		ActiveRX:          300 * units.Microwatt,
		Sleep:             50 * units.Nanowatt,
		WakeEnergy:        100 * units.Nanojoule,
		WakeTime:          50 * units.Microsecond,
		FrameOverheadBits: 64,
		MaxPayloadBits:    1024 * 8,
	}
}

// Catalog returns all modeled transceivers, EQS designs first — the rows of
// the §IV-B transceiver survey table (TAB-B).
func Catalog() []*Transceiver {
	return []*Transceiver{SubUWrComm(), BodyWire(), WiR(), MQSImplant(), BLE42(), BLE5DLE()}
}
