package energy

import (
	"math/rand"

	"wiban/internal/units"
)

// Harvester is an ambient energy source with a min/typ/max power envelope.
// The paper (§V): "With current energy harvesting modalities, 10−200 µW
// power harvesting is possible in indoor conditions."
type Harvester struct {
	Name string
	// Min, Typ, Max bracket the harvestable power under the stated
	// conditions.
	Min, Typ, Max units.Power
	// Variability is the relative standard deviation of short-term output
	// around Typ, used by the stochastic trace generator.
	Variability float64
}

// IndoorPV returns an indoor photovoltaic harvester spanning the paper's
// 10–200 µW indoor envelope (a few cm² of cell at 200–1000 lux).
func IndoorPV() *Harvester {
	return &Harvester{
		Name:        "indoor PV",
		Min:         10 * units.Microwatt,
		Typ:         50 * units.Microwatt,
		Max:         200 * units.Microwatt,
		Variability: 0.4,
	}
}

// BodyTEG returns a wearable thermoelectric harvester (skin-to-air
// gradient), the steadier but weaker option.
func BodyTEG() *Harvester {
	return &Harvester{
		Name:        "body TEG",
		Min:         5 * units.Microwatt,
		Typ:         15 * units.Microwatt,
		Max:         60 * units.Microwatt,
		Variability: 0.15,
	}
}

// KineticIMU returns a motion harvester: high peaks during activity, zero
// at rest.
func Kinetic() *Harvester {
	return &Harvester{
		Name:        "kinetic",
		Min:         0,
		Typ:         20 * units.Microwatt,
		Max:         150 * units.Microwatt,
		Variability: 0.8,
	}
}

// Harvesters returns the modeled catalog.
func Harvesters() []*Harvester { return []*Harvester{IndoorPV(), BodyTEG(), Kinetic()} }

// Sustains reports whether the harvester's typical output covers the load —
// the paper's energy-neutral ("charging-free") criterion.
func (h *Harvester) Sustains(load units.Power) bool { return h.Typ >= load }

// WorstCaseSustains applies the same test at the minimum envelope.
func (h *Harvester) WorstCaseSustains(load units.Power) bool { return h.Min >= load }

// Sample draws one short-term output power from a truncated Gaussian around
// Typ using the provided RNG (deterministic under a seeded source).
func (h *Harvester) Sample(rng *rand.Rand) units.Power {
	p := float64(h.Typ) * (1 + h.Variability*rng.NormFloat64())
	return units.Power(units.Clamp(p, float64(h.Min), float64(h.Max)))
}
