package partition

// Cut queries that only these tests make; no binary links them.

import "wiban/internal/units"

// LeafPowerAt returns the leaf's average power running the cut at a given
// inference rate, including the platform idle floor when any local compute
// is deployed.
func (c Cut) LeafPowerAt(perSecond float64, leaf *Platform) units.Power {
	p := units.Power(float64(c.LeafEnergy) * perSecond)
	if c.LeafMACs > 0 {
		p += leaf.IdlePower
	}
	return p
}
