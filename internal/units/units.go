// Package units provides typed physical quantities used throughout the
// wiban models: power, energy, data rate, frequency, capacitance, voltage,
// distance and simulated time.
//
// Every quantity is a named float64 in coherent SI units (watts, joules,
// bits per second, hertz, farads, volts, meters, seconds). Keeping the
// quantities typed prevents the classic dimensional mistakes that plague
// energy modeling (joules where watts were meant, pJ/bit where nJ/bit was
// meant), and the String methods render engineering notation so tables read
// like the paper's figures (µW, pJ/bit, Mbps, days of battery life).
package units

import (
	"fmt"
	"math"
)

// Power is an electrical power in watts.
type Power float64

// Common power scales.
const (
	Nanowatt  Power = 1e-9
	Microwatt Power = 1e-6
	Milliwatt Power = 1e-3
	Watt      Power = 1
)

// Energy is an amount of energy in joules.
type Energy float64

// Common energy scales.
const (
	Picojoule  Energy = 1e-12
	Nanojoule  Energy = 1e-9
	Microjoule Energy = 1e-6
)

// DataRate is an information rate in bits per second.
type DataRate float64

// Common data-rate scales.
const (
	BitPerSecond DataRate = 1
	Kbps         DataRate = 1e3
	Mbps         DataRate = 1e6
)

// Frequency is a frequency in hertz.
type Frequency float64

// Common frequency scales.
const (
	Hertz     Frequency = 1
	Kilohertz Frequency = 1e3
	Megahertz Frequency = 1e6
	Gigahertz Frequency = 1e9
)

// Capacitance is an electrical capacitance in farads.
type Capacitance float64

// Common capacitance scales.
const (
	Picofarad Capacitance = 1e-12
)

// Resistance is an electrical resistance in ohms.
type Resistance float64

// Common resistance scales.
const (
	Ohm     Resistance = 1
	Kiloohm Resistance = 1e3
	Megaohm Resistance = 1e6
)

// Voltage is an electrical potential in volts.
type Voltage float64

// Common voltage scales.
const (
	Volt Voltage = 1
)

// Distance is a length in meters.
type Distance float64

// Common distance scales.
const (
	Millimeter Distance = 1e-3
	Centimeter Distance = 1e-2
	Meter      Distance = 1
)

// Duration is a span of simulated or projected wall-clock time in seconds.
// It is distinct from time.Duration because battery-life projections span
// years, beyond what int64 nanoseconds express comfortably, and because the
// models are continuous-time.
type Duration float64

// Common duration scales.
const (
	Microsecond Duration = 1e-6
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
	Hour        Duration = 3600
	Day         Duration = 86400
	Week        Duration = 7 * 86400
	// Year is the Julian year used for "perpetual" (> 1 year) thresholds.
	Year Duration = 365.25 * 86400
)

// EnergyPerBit is a communication or computation efficiency in joules/bit.
type EnergyPerBit float64

// Charge is an electrical charge in coulombs.
type Charge float64

// MilliampHour is the charge of one mAh.
const MilliampHour Charge = 3.6

// --- Arithmetic helpers -----------------------------------------------

// Times returns the energy spent at power p over duration d.
func (p Power) Times(d Duration) Energy { return Energy(float64(p) * float64(d)) }

// Over returns the duration for which energy e sustains power p.
// It returns +Inf for non-positive power.
func (e Energy) Over(p Power) Duration {
	if p <= 0 {
		return Duration(math.Inf(1))
	}
	return Duration(float64(e) / float64(p))
}

// At returns the average power of spending energy e over duration d.
func (e Energy) At(d Duration) Power {
	if d <= 0 {
		return Power(math.Inf(1))
	}
	return Power(float64(e) / float64(d))
}

// EnergyFor returns the energy to move n bits at efficiency eb.
func (eb EnergyPerBit) EnergyFor(bits float64) Energy {
	return Energy(float64(eb) * bits)
}

// Energy returns the stored energy of charge q at voltage v.
func (q Charge) Energy(v Voltage) Energy { return Energy(float64(q) * float64(v)) }

// TimeFor returns the time to move n bits at rate r.
func (r DataRate) TimeFor(bits float64) Duration {
	if r <= 0 {
		return Duration(math.Inf(1))
	}
	return Duration(bits / float64(r))
}

// --- Decibel helpers ---------------------------------------------------

// DB converts a power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// DBV converts a voltage (amplitude) ratio to decibels.
func DBV(ratio float64) float64 { return 20 * math.Log10(ratio) }

// DBm converts a power to dBm (decibels relative to one milliwatt).
func DBm(p Power) float64 { return 10 * math.Log10(float64(p)/1e-3) }

// FromDBm converts dBm to a power.
func FromDBm(dbm float64) Power { return Power(1e-3 * math.Pow(10, dbm/10)) }

// --- Formatting --------------------------------------------------------

// siFormat renders v with an SI prefix chosen so the mantissa is in [1,1000).
func siFormat(v float64, unit string) string {
	if v == 0 {
		return "0 " + unit
	}
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	type prefix struct {
		scale float64
		sym   string
	}
	prefixes := []prefix{
		{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "µ"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
	}
	for _, p := range prefixes {
		if v >= p.scale {
			return fmt.Sprintf("%s%.3g %s%s", neg, v/p.scale, p.sym, unit)
		}
	}
	return fmt.Sprintf("%s%.3g %s", neg, v, unit)
}

// String renders the power with an SI prefix (e.g. "415 nW", "2.5 mW").
func (p Power) String() string { return siFormat(float64(p), "W") }

// String renders the energy with an SI prefix (e.g. "6.3 pJ").
func (e Energy) String() string { return siFormat(float64(e), "J") }

// String renders the data rate with an SI prefix (e.g. "4 Mbps").
func (r DataRate) String() string { return siFormat(float64(r), "bps") }

// String renders the frequency with an SI prefix (e.g. "21 MHz").
func (f Frequency) String() string { return siFormat(float64(f), "Hz") }

// String renders the resistance with an SI prefix (e.g. "10 MΩ").
func (r Resistance) String() string { return siFormat(float64(r), "Ω") }

// String renders the distance with an SI prefix (e.g. "15 cm" as "150 mm").
func (d Distance) String() string { return siFormat(float64(d), "m") }

// String renders the efficiency with an SI prefix (e.g. "100 pJ/b").
func (eb EnergyPerBit) String() string { return siFormat(float64(eb), "J/b") }

// String renders a duration in the most natural human unit for battery-life
// tables: years, days, hours, minutes, seconds or engineering sub-seconds.
func (d Duration) String() string {
	v := float64(d)
	switch {
	case math.IsInf(v, 1):
		return "∞"
	case v < 0:
		return "-" + (-d).String()
	case v >= float64(Year):
		return fmt.Sprintf("%.3g yr", v/float64(Year))
	case v >= float64(Day):
		return fmt.Sprintf("%.3g d", v/float64(Day))
	case v >= float64(Hour):
		return fmt.Sprintf("%.3g h", v/float64(Hour))
	case v >= float64(Minute):
		return fmt.Sprintf("%.3g min", v/float64(Minute))
	case v >= 1:
		return fmt.Sprintf("%.3g s", v)
	default:
		return siFormat(v, "s")
	}
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
