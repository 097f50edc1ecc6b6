package iob

import (
	"fmt"
	"math"

	"wiban/internal/energy"
	"wiban/internal/radio"
	"wiban/internal/survey"
	"wiban/internal/units"
)

// Projector reproduces Fig. 3: battery life of a wearable node as a
// function of its data rate, with total power = sensing (survey trend) +
// communication (transceiver model), on a stated battery. Computation is
// taken as negligible, matching the figure's first-order assumption.
type Projector struct {
	Battery *energy.Battery
	Radio   *radio.Transceiver
	Trend   survey.PowerLaw
	// SyncWakesPerSecond charges the radio's synchronization overhead.
	SyncWakesPerSecond float64
}

// NewFig3Projector returns the paper's configuration: 1000 mAh battery,
// Wi-R at 100 pJ/bit, sensing power from the BioCAS'23 survey fit.
func NewFig3Projector() *Projector {
	return &Projector{
		Battery:            energy.Fig3Battery(),
		Radio:              radio.WiR(),
		Trend:              survey.DefaultSensingTrend(),
		SyncWakesPerSecond: 10,
	}
}

// Projection is one point of the Fig. 3 curve.
type Projection struct {
	Rate      units.DataRate
	Sense     units.Power
	Comm      units.Power
	Total     units.Power
	Life      units.Duration
	Perpetual bool
}

// At projects one data rate using the survey trend for sensing power.
func (p *Projector) At(rate units.DataRate) (Projection, error) {
	return p.at(rate, p.Trend.At(rate))
}

// at projects with an explicit sensing power.
func (p *Projector) at(rate units.DataRate, sense units.Power) (Projection, error) {
	comm, err := p.Radio.AveragePower(rate, p.SyncWakesPerSecond)
	if err != nil {
		return Projection{}, fmt.Errorf("iob: projecting %v: %w", rate, err)
	}
	pr := Projection{Rate: rate, Sense: sense, Comm: comm, Total: sense + comm}
	pr.Life = p.Battery.Lifetime(pr.Total)
	pr.Perpetual = p.Battery.Perpetual(pr.Total)
	return pr, nil
}

// Sweep projects a log-spaced rate sweep with pointsPerDecade points from
// lo to hi inclusive.
func (p *Projector) Sweep(lo, hi units.DataRate, pointsPerDecade int) ([]Projection, error) {
	if lo <= 0 || hi <= lo || pointsPerDecade < 1 {
		return nil, fmt.Errorf("iob: invalid sweep [%v, %v] @ %d/decade", lo, hi, pointsPerDecade)
	}
	var out []Projection
	step := math.Pow(10, 1/float64(pointsPerDecade))
	for r := float64(lo); r <= float64(hi)*1.0000001; r *= step {
		pr, err := p.At(units.DataRate(r))
		if err != nil {
			// Beyond the radio's goodput the curve simply ends.
			break
		}
		out = append(out, pr)
	}
	return out, nil
}

// PerpetualBoundary returns the highest data rate that still projects more
// than a year of battery life — the right edge of Fig. 3's "perpetually
// operable region". It returns 0 if no rate qualifies.
func (p *Projector) PerpetualBoundary() units.DataRate {
	lo, hi := units.DataRate(1), p.Radio.Goodput
	at := func(r units.DataRate) bool {
		pr, err := p.At(r)
		return err == nil && pr.Perpetual
	}
	if !at(lo) {
		return 0
	}
	if at(hi) {
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := units.DataRate(float64(lo+hi) / 2)
		if at(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// DeviceMarker is a concrete device class placed on the Fig. 3 axes with
// its own (not trend-fitted) sensing power.
type DeviceMarker struct {
	Name  string
	Rate  units.DataRate
	Sense units.Power
}

// Fig3Markers returns the device classes the paper annotates on Fig. 3.
func Fig3Markers() []DeviceMarker {
	return []DeviceMarker{
		{"biopotential patch", 3 * units.Kbps, 10 * units.Microwatt},
		{"smart ring", 3.2 * units.Kbps, 250 * units.Microwatt},
		{"fitness tracker", 12.8 * units.Kbps, 280 * units.Microwatt},
		{"audio AI wearable", 256 * units.Kbps, 600 * units.Microwatt},
		{"video AI node (MJPEG)", 1.4 * units.Mbps, 35 * units.Milliwatt},
	}
}

// Mark projects a device marker with its own sensing power.
func (p *Projector) Mark(m DeviceMarker) (Projection, error) {
	return p.at(m.Rate, m.Sense)
}
