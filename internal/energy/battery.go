// Package energy models the energy supply side of an IoB node: batteries
// and energy harvesters, plus the paper's "perpetual"
// classification (operating life beyond one year, or outright
// energy-neutral operation under harvesting).
//
// Fig. 3 of the paper projects battery life for a 1000 mAh battery (a high-
// capacity coin cell) against node power; §V adds that indoor harvesting
// delivers 10–200 µW, so nodes under that envelope never need charging at
// all. Both projections are reproduced by this package.
package energy

import (
	"fmt"
	"math"

	"wiban/internal/units"
)

// PerpetualLife is the paper's threshold: devices lasting longer than one
// year on a charge are considered perpetually operable.
const PerpetualLife = units.Year

// Battery is a primary or secondary cell with the derating that matters
// for multi-year projections: usable-capacity fraction, self-discharge and
// shelf life.
type Battery struct {
	// Name identifies the cell ("CR2032", "1000 mAh coin cell").
	Name string
	// CapacityMAh is the rated capacity in milliamp-hours.
	CapacityMAh float64
	// Voltage is the nominal cell voltage.
	Voltage units.Voltage
	// UsableFraction derates the rated capacity for cutoff voltage and
	// converter losses (typically 0.8–0.9).
	UsableFraction float64
	// SelfDischargePerYear is the fraction of rated capacity lost per year
	// with no load (≈ 1%/yr for lithium primary cells).
	SelfDischargePerYear float64
	// ShelfLife caps the projection: beyond it the chemistry, not the
	// load, ends the battery (typically 10 years).
	ShelfLife units.Duration
}

// RatedEnergy returns the full rated energy content.
func (b *Battery) RatedEnergy() units.Energy {
	return (units.Charge(b.CapacityMAh) * units.MilliampHour).Energy(b.Voltage)
}

// UsableEnergy returns the energy actually extractable by the node.
func (b *Battery) UsableEnergy() units.Energy {
	return units.Energy(float64(b.RatedEnergy()) * b.UsableFraction)
}

// Lifetime projects how long the battery sustains a constant load.
// Self-discharge is modeled as a parallel constant drain of
// (rated energy × rate)/year, and the result is capped at ShelfLife.
// A non-positive load returns the shelf life.
func (b *Battery) Lifetime(load units.Power) units.Duration {
	shelf := b.ShelfLife
	if shelf <= 0 {
		shelf = units.Duration(math.Inf(1))
	}
	selfDrain := units.Power(float64(b.RatedEnergy()) * b.SelfDischargePerYear / float64(units.Year))
	total := load + selfDrain
	if total <= 0 {
		return shelf
	}
	life := b.UsableEnergy().Over(total)
	if life > shelf {
		return shelf
	}
	return life
}

// PerpetualLoad returns the highest constant load that still yields a
// lifetime of at least PerpetualLife — the power budget a node must meet
// to sit inside Fig. 3's "perpetually operable region".
func (b *Battery) PerpetualLoad() units.Power {
	// Solve UsableEnergy / (P + selfDrain) = 1 year for P.
	selfDrain := float64(b.RatedEnergy()) * b.SelfDischargePerYear / float64(units.Year)
	p := float64(b.UsableEnergy())/float64(PerpetualLife) - selfDrain
	if p < 0 {
		return 0
	}
	return units.Power(p)
}

// Perpetual reports whether the load meets the paper's perpetual-operation
// criterion on this battery.
func (b *Battery) Perpetual(load units.Power) bool {
	return b.Lifetime(load) >= PerpetualLife
}

// --- Battery catalog -----------------------------------------------------

// Fig3Battery returns the battery of the paper's Fig. 3: a 1000 mAh
// high-capacity coin cell at 3 V nominal.
func Fig3Battery() *Battery {
	return &Battery{
		Name:                 "1000 mAh coin cell",
		CapacityMAh:          1000,
		Voltage:              3 * units.Volt,
		UsableFraction:       0.85,
		SelfDischargePerYear: 0.01,
		ShelfLife:            10 * units.Year,
	}
}

// CR2032 returns the ubiquitous 225 mAh lithium coin cell.
func CR2032() *Battery {
	return &Battery{
		Name:                 "CR2032",
		CapacityMAh:          225,
		Voltage:              3 * units.Volt,
		UsableFraction:       0.85,
		SelfDischargePerYear: 0.01,
		ShelfLife:            10 * units.Year,
	}
}

// LiPo rechargeable pack of the given capacity (smartwatch/hub class),
// at 3.7 V with faster self-discharge and no meaningful shelf cap within
// the projection horizon.
func LiPo(mAh float64) *Battery {
	return &Battery{
		Name:                 fmt.Sprintf("LiPo %.0f mAh", mAh),
		CapacityMAh:          mAh,
		Voltage:              3.7 * units.Volt,
		UsableFraction:       0.9,
		SelfDischargePerYear: 0.2,
		ShelfLife:            10 * units.Year,
	}
}

// --- State tracking for simulation --------------------------------------

// State is a mutable battery charge tracker used by the discrete-event
// simulator.
type State struct {
	batt      *Battery
	remaining units.Energy
	drained   units.Energy
}

// NewState returns a full battery state.
func NewState(b *Battery) *State {
	return &State{batt: b, remaining: b.UsableEnergy()}
}

// Reset refills the battery to full and clears the drain accounting, so a
// simulator can reuse the state across runs without reallocating.
func (s *State) Reset() {
	s.remaining = s.batt.UsableEnergy()
	s.drained = 0
}

// Reinit repoints the state at a different cell and refills it — the
// reusable-arena form of NewState, for simulators that recycle node
// state across scenarios.
func (s *State) Reinit(b *Battery) {
	s.batt = b
	s.Reset()
}

// Draw removes e from the battery; it reports false once depleted (the
// draw that crosses zero is honored, further draws are not).
func (s *State) Draw(e units.Energy) bool {
	if e < 0 {
		e = 0
	}
	if s.remaining <= 0 {
		return false
	}
	s.remaining -= e
	s.drained += e
	return true
}

// Recharge adds e back (harvesting), capped at full.
func (s *State) Recharge(e units.Energy) {
	if e < 0 {
		return
	}
	s.remaining += e
	if max := s.batt.UsableEnergy(); s.remaining > max {
		s.remaining = max
	}
}

// Depleted reports whether the battery is exhausted.
func (s *State) Depleted() bool { return s.remaining <= 0 }

// FractionRemaining returns the state of charge in [0,1].
func (s *State) FractionRemaining() float64 {
	max := float64(s.batt.UsableEnergy())
	if max <= 0 {
		return 0
	}
	return units.Clamp(float64(s.remaining)/max, 0, 1)
}
