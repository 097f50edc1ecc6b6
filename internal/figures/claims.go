package figures

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"wiban/internal/energy"
	"wiban/internal/iob"
	"wiban/internal/phy"
	"wiban/internal/radio"
	"wiban/internal/units"
)

// Claim is one quantitative statement of the paper (arXiv 2406.18791)
// with the measurement this repository makes of it and the closed
// interval [Min, Max] that measurement must fall in; ±Inf leaves a side
// open. A yes/no claim measures 1 when the statement holds and is bound
// to 1.
type Claim struct {
	ID, Section, Statement string
	Measure                func() (float64, error)
	Min, Max               float64
	Show                   func(float64) string
}

// bound renders [Min, Max] in the claim's unit.
func (c Claim) bound() string {
	switch {
	case c.Min == c.Max:
		return c.Show(c.Min)
	case math.IsInf(c.Max, 1):
		return "≥ " + c.Show(c.Min)
	case math.IsInf(c.Min, -1):
		return "≤ " + c.Show(c.Max)
	}
	return c.Show(c.Min) + " – " + c.Show(c.Max)
}

// goodputRatio and energyRatio are the §I headline measurements, shared
// with TAB-A.
func goodputRatio() float64 {
	return float64(radio.WiR().Goodput) / float64(radioBLE().Goodput)
}

func energyRatio(ble *radio.Transceiver) float64 {
	return float64(ble.EnergyPerGoodBit()) / float64(radio.WiR().EnergyPerGoodBit())
}

func yesNo(v float64) string {
	if v == 1 {
		return "yes"
	}
	return "no"
}

// Claims returns the paper's quantitative claims in presentation order.
// Values and bounds come from the paper's abstract and figure captions
// as this repository quotes them.
func Claims() []Claim {
	inf := math.Inf(1)
	ratio := func(v float64) string { return fmt.Sprintf("%.3gx", v) }
	rate := func(v float64) string { return units.DataRate(v).String() }
	power := func(v float64) string { return units.Power(v).String() }
	life := func(v float64) string { return units.Duration(v).String() }
	of := func(f func() float64) func() (float64, error) {
		return func() (float64, error) { return f(), nil }
	}
	holds := func(id, section, statement string, f func() bool) Claim {
		return Claim{id, section, statement, func() (float64, error) {
			if f() {
				return 1, nil
			}
			return 0, nil
		}, 1, 1, yesNo}
	}
	marker := func(name string) func() (float64, error) {
		return func() (float64, error) {
			for _, m := range iob.Fig3Markers() {
				if m.Name == name {
					pr, err := iob.NewFig3Projector().Mark(m)
					return float64(pr.Life), err
				}
			}
			return 0, fmt.Errorf("no Fig. 3 marker %q", name)
		}
	}
	year, week, day := float64(energy.PerpetualLife), float64(units.Week), float64(units.Day)
	const body = 2 * units.Meter // the whole-body path of the §III link claims
	return []Claim{
		{"goodput-10x", "§I, §III-B", "Wi-R is >10x faster than BLE 4.2 (goodput)", of(goodputRatio), 10, inf, ratio},
		{"energy-100x", "§I, §III-B", "Wi-R spends <1/100 of BLE 4.2's energy per bit",
			of(func() float64 { return energyRatio(radioBLE()) }), 100, inf, ratio},
		{"energy-100x-ble5", "§I, §III-B", "even BLE 5 with DLE spends ≥100x Wi-R's energy per bit",
			of(func() float64 { return energyRatio(radio.BLE5DLE()) }), 100, inf, ratio},
		{"fig3-boundary", "Fig. 3", "on 1000 mAh, the perpetual (>1 yr) region ends in the kbps decades",
			of(func() float64 { return float64(iob.NewFig3Projector().PerpetualBoundary()) }),
			float64(3 * units.Kbps), float64(300 * units.Kbps), rate},
		{"fig3-patch", "Fig. 3", "a biopotential patch is perpetually operable", marker("biopotential patch"), year, inf, life},
		{"fig3-ring", "Fig. 3", "a smart ring is perpetually operable", marker("smart ring"), year, inf, life},
		{"fig3-tracker", "Fig. 3", "a fitness tracker is perpetually operable", marker("fitness tracker"), year, inf, life},
		{"fig3-audio", "Fig. 3", "an audio AI wearable lasts all week, short of perpetual",
			marker("audio AI wearable"), week, math.Nextafter(year, 0), life},
		{"fig3-video", "Fig. 3", "an AI video node (MJPEG) lasts all day, below audio",
			marker("video AI node (MJPEG)"), day, 2 * week, life},
		holds("fig3-ble-top", "Fig. 3", "BLE cannot carry the 3.9 Mbps top of the rate axis",
			func() bool { return radioBLE().Goodput < 3.9*units.Mbps }),
		{"perpetual-load", "Fig. 3", "the 1000 mAh cell carries 200-342 µW for a year",
			of(func() float64 { return float64(energy.Fig3Battery().PerpetualLoad()) }),
			float64(200 * units.Microwatt), float64(342 * units.Microwatt), power},
		{"pv-min", "§V", "indoor harvesting gives 10-200 µW: the floor",
			of(func() float64 { return float64(energy.IndoorPV().Min) }),
			float64(10 * units.Microwatt), float64(10 * units.Microwatt), power},
		{"pv-max", "§V", "indoor harvesting gives 10-200 µW: the ceiling",
			of(func() float64 { return float64(energy.IndoorPV().Max) }),
			float64(200 * units.Microwatt), float64(200 * units.Microwatt), power},
		holds("pv-30uw", "§V", "indoor PV sustains a 30 µW biopotential node",
			func() bool { return energy.IndoorPV().Sustains(30 * units.Microwatt) }),
		holds("pv-16mw", "§V", "indoor PV cannot sustain a 16 mW BLE-class node",
			func() bool { return !energy.IndoorPV().Sustains(16 * units.Milliwatt) }),
		holds("wir-link", "§III", "Wi-R closes across the body (2 m) at BER 1e-6",
			func() bool { return phy.WiRLink(body).Closes(1e-6) }),
		holds("ble-link", "§III", "BLE closes across the body (2 m) at BER 1e-3",
			func() bool { return phy.BLELink(body).Closes(1e-3) }),
		{"wir-rate", "§III", "the body channel carries ≥4 Mbps at BER 1e-6",
			of(func() float64 { return float64(phy.WiRLink(body).MaxRateForBER(1e-6)) }), float64(4 * units.Mbps), inf, rate},
		{"wir-shannon", "§III", "that rate stays within the Shannon capacity", of(func() float64 {
			l := phy.WiRLink(body)
			return float64(l.MaxRateForBER(1e-6)) / float64(l.ShannonCapacity())
		}), math.Inf(-1), 1, ratio},
	}
}

// TableClaims renders the paper claims with the given ids, or every
// claim when none is given, with their measurements and bounds. It fails,
// naming each entry out of bound, if any claim does not hold, and naming
// the ids if they do not each name one claim.
func TableClaims(ids ...string) (*Table, error) {
	t := &Table{
		ID:     "CLAIMS",
		Title:  "Paper claims (arXiv 2406.18791) against this repository's models",
		Header: []string{"id", "section", "paper", "measured", "bound"},
	}
	var failed []string
	for _, c := range Claims() {
		if len(ids) > 0 && !slices.Contains(ids, c.ID) {
			continue
		}
		v, err := c.Measure()
		if err != nil {
			return nil, fmt.Errorf("figures: claim %s: %w", c.ID, err)
		}
		if !(v >= c.Min && v <= c.Max) {
			failed = append(failed, fmt.Sprintf("%s (measured %s, bound %s)", c.ID, c.Show(v), c.bound()))
		}
		t.Rows = append(t.Rows, []string{c.ID, c.Section, c.Statement, c.Show(v), c.bound()})
	}
	if len(ids) > 0 && len(t.Rows) != len(ids) {
		failed = append(failed, fmt.Sprintf("ids %q do not each name one claim", ids))
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("figures: paper claims fail: %s", strings.Join(failed, "; "))
	}
	return t, nil
}
