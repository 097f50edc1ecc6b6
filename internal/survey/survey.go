// Package survey holds the two literature/market surveys the paper's
// figures are built from:
//
//   - Fig. 2's catalog of commercial wearables (pre-2024 and the 2024
//     wearable-AI boom) with battery capacity, platform power and the
//     battery-life band the market reports;
//   - Fig. 3's survey of sensing (AFE + ADC) power versus output data
//     rate, cited from Datta et al. (BioCAS 2023), which we reconstruct
//     from public AFE classes and fit with a log-log power law.
//
// Substitution note: the original surveys aggregate
// proprietary teardown and datasheet numbers. The catalog here is rebuilt
// from the battery-life bands the paper itself states, with capacities and
// platform powers chosen from public specs so that capacity/power lands in
// the stated band — which is exactly the self-consistency Fig. 2 displays.
package survey

import (
	"fmt"
	"math"

	"wiban/internal/energy"
	"wiban/internal/units"
)

// Era distinguishes the two columns of Fig. 2.
type Era int

// Device eras.
const (
	Pre2024 Era = iota
	AIBoom2024
)

// String names the era as in Fig. 2's headers.
func (e Era) String() string {
	switch e {
	case Pre2024:
		return "Pre-2024 Wearables"
	case AIBoom2024:
		return "2024 Wearable-AI Boom"
	default:
		return fmt.Sprintf("Era(%d)", int(e))
	}
}

// LifeBand is a qualitative battery-life class as labeled in Fig. 2.
type LifeBand int

// Battery-life bands from Fig. 2, shortest first.
const (
	BandHours3to5 LifeBand = iota
	BandSub10h
	BandAllDay
	BandAllWeek
)

// String names the band with the figure's wording.
func (b LifeBand) String() string {
	switch b {
	case BandHours3to5:
		return "3-5 hr battery life"
	case BandSub10h:
		return "<10 hr battery life"
	case BandAllDay:
		return "All-day battery life"
	case BandAllWeek:
		return "All-week battery life"
	default:
		return fmt.Sprintf("LifeBand(%d)", int(b))
	}
}

// Bounds returns the duration range [min, max) the band covers. The bands
// are generous on the high side: "all-day" devices commonly stretch to two
// days, "all-week" rings to two weeks.
func (b LifeBand) Bounds() (min, max units.Duration) {
	switch b {
	case BandHours3to5:
		return 2.5 * units.Hour, 6 * units.Hour
	case BandSub10h:
		return 6 * units.Hour, 12 * units.Hour
	case BandAllDay:
		return 12 * units.Hour, 3 * units.Day
	case BandAllWeek:
		return 4 * units.Day, 15 * units.Day
	default:
		return 0, 0
	}
}

// Contains reports whether a projected life falls in the band.
func (b LifeBand) Contains(d units.Duration) bool {
	min, max := b.Bounds()
	return d >= min && d < max
}

// Device is one row of the Fig. 2 catalog.
type Device struct {
	Name           string
	Era            Era
	BatteryMAh     float64
	BatteryVoltage units.Voltage
	// PlatformPower is the average whole-device power under the typical
	// mixed-use profile that the marketed battery life reflects.
	PlatformPower units.Power
	// Claimed is the battery-life band from Fig. 2.
	Claimed LifeBand
}

// Battery returns the device's cell as an energy.Battery (rechargeable
// profile).
func (d *Device) Battery() *energy.Battery {
	return &energy.Battery{
		Name:                 d.Name + " cell",
		CapacityMAh:          d.BatteryMAh,
		Voltage:              d.BatteryVoltage,
		UsableFraction:       0.9,
		SelfDischargePerYear: 0.2,
		ShelfLife:            10 * units.Year,
	}
}

// ProjectedLife returns the battery life our energy model projects for the
// device.
func (d *Device) ProjectedLife() units.Duration {
	return d.Battery().Lifetime(d.PlatformPower)
}

// Consistent reports whether the projection lands in the claimed band —
// the Fig. 2 reproduction check.
func (d *Device) Consistent() bool {
	return d.Claimed.Contains(d.ProjectedLife())
}

// Fig2Devices returns the eleven device classes of Fig. 2.
func Fig2Devices() []Device {
	v := 3.7 * units.Volt
	return []Device{
		// Pre-2024 column.
		{"Smart ring", Pre2024, 20, v, 0.35 * units.Milliwatt, BandAllWeek},
		{"Fitness tracker", Pre2024, 160, v, 3 * units.Milliwatt, BandAllWeek},
		{"Earbuds", Pre2024, 60, v, 5.5 * units.Milliwatt, BandAllDay},
		{"Smartwatch", Pre2024, 310, v, 22 * units.Milliwatt, BandAllDay},
		{"Headphones", Pre2024, 600, v, 36 * units.Milliwatt, BandAllDay},
		{"Smartphone", Pre2024, 4500, 3.85 * units.Volt, 1.8 * units.Watt, BandSub10h},
		// 2024 wearable-AI boom column.
		{"AI pin", AIBoom2024, 320, v, 48 * units.Milliwatt, BandAllDay},
		{"AI pocket assistant", AIBoom2024, 1000, v, 150 * units.Milliwatt, BandAllDay},
		{"AI necklace", AIBoom2024, 210, v, 30 * units.Milliwatt, BandAllDay},
		{"Smart glasses", AIBoom2024, 155, v, 120 * units.Milliwatt, BandHours3to5},
		{"MR headset", AIBoom2024, 5100, 3.85 * units.Volt, 4.9 * units.Watt, BandHours3to5},
	}
}

// --- Fig. 3 sensing-power survey -----------------------------------------

// Point is one surveyed (data rate, sensing power) observation.
type Point struct {
	Rate  units.DataRate
	Power units.Power
	Label string
}

// SensingSurvey returns the reconstructed AFE survey behind Fig. 3: power
// to acquire (not communicate) a signal as a function of the output data
// rate, from temperature sensors through biopotential AFEs, IMUs,
// microphones, up to image sensors at compressed-video rates.
func SensingSurvey() []Point {
	return []Point{
		{16 * units.BitPerSecond, 0.5 * units.Microwatt, "temperature"},
		{32 * units.BitPerSecond, 1 * units.Microwatt, "humidity"},
		{200 * units.BitPerSecond, 2 * units.Microwatt, "pedometer"},
		{3 * units.Kbps, 10 * units.Microwatt, "ECG 1-lead"},
		{3.2 * units.Kbps, 250 * units.Microwatt, "PPG (LED)"},
		{9.6 * units.Kbps, 30 * units.Microwatt, "IMU 6-axis"},
		{12 * units.Kbps, 25 * units.Microwatt, "EMG"},
		{32 * units.Kbps, 80 * units.Microwatt, "EEG 8-ch"},
		{128 * units.Kbps, 300 * units.Microwatt, "audio LQ"},
		{256 * units.Kbps, 600 * units.Microwatt, "voice mic"},
		{768 * units.Kbps, 1.5 * units.Milliwatt, "audio HQ"},
		{1 * units.Mbps, 10 * units.Milliwatt, "camera (QQVGA stream)"},
		{5 * units.Mbps, 35 * units.Milliwatt, "camera (QVGA stream)"},
		{10 * units.Mbps, 80 * units.Milliwatt, "camera (720p stream)"},
	}
}

// PowerLaw is a fitted sensing-power trend P = A·R^B (P in watts, R in
// bits per second).
type PowerLaw struct {
	A float64 // prefactor, watts at 1 bps
	B float64 // exponent
}

// FitSensingPower fits a power law through the survey by least squares in
// log-log space. Points with non-positive rate or power are skipped.
func FitSensingPower(pts []Point) PowerLaw {
	var n float64
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		if p.Rate <= 0 || p.Power <= 0 {
			continue
		}
		x := math.Log10(float64(p.Rate))
		y := math.Log10(float64(p.Power))
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	if n < 2 {
		return PowerLaw{}
	}
	b := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a := (sy - b*sx) / n
	return PowerLaw{A: math.Pow(10, a), B: b}
}

// At evaluates the trend at rate r.
func (p PowerLaw) At(r units.DataRate) units.Power {
	if r <= 0 {
		return 0
	}
	return units.Power(p.A * math.Pow(float64(r), p.B))
}

// DefaultSensingTrend returns the power law fitted to the full survey —
// the P_sense(R) curve used in the Fig. 3 battery-life projection.
func DefaultSensingTrend() PowerLaw {
	return FitSensingPower(SensingSurvey())
}
