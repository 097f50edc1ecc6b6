package energy

import (
	"math"

	"wiban/internal/units"
)

// The harvested-energy storage buffer, which only these tests use; no
// binary links it.

// Storage is a capacitor (or tiny rechargeable cell) buffering harvested
// energy between source and load, operated between VMin and VMax.
type Storage struct {
	Capacitance units.Capacitance
	VMax, VMin  units.Voltage
	v           units.Voltage
}

// NewStorage returns a storage buffer charged to vInit (clamped to
// [VMin, VMax]).
func NewStorage(c units.Capacitance, vMin, vMax, vInit units.Voltage) *Storage {
	s := &Storage{Capacitance: c, VMin: vMin, VMax: vMax}
	s.v = units.Voltage(units.Clamp(float64(vInit), float64(vMin), float64(vMax)))
	return s
}

// capEnergy returns ½CV² at voltage v.
func (s *Storage) capEnergy(v units.Voltage) units.Energy {
	return units.Energy(0.5 * float64(s.Capacitance) * float64(v) * float64(v))
}

// Energy returns the usable stored energy above the VMin cutoff.
func (s *Storage) Energy() units.Energy {
	e := s.capEnergy(s.v) - s.capEnergy(s.VMin)
	if e < 0 {
		return 0
	}
	return e
}

// Capacity returns the maximum usable energy (VMax down to VMin).
func (s *Storage) Capacity() units.Energy {
	return s.capEnergy(s.VMax) - s.capEnergy(s.VMin)
}

// Voltage returns the present buffer voltage.
func (s *Storage) Voltage() units.Voltage { return s.v }

// Store adds harvested energy, returning the amount actually absorbed
// (the rest is lost once the buffer saturates at VMax).
func (s *Storage) Store(e units.Energy) units.Energy {
	if e <= 0 {
		return 0
	}
	room := s.capEnergy(s.VMax) - s.capEnergy(s.v)
	if e > room {
		e = room
	}
	s.v = s.voltsAt(s.capEnergy(s.v) + e)
	return e
}

// Draw removes energy for the load; it reports false (drawing nothing) if
// the request would take the buffer below VMin. A relative tolerance
// absorbs the rounding of the ½CV² ↔ V conversions so that storing and
// drawing the same amount round-trips.
func (s *Storage) Draw(e units.Energy) bool {
	if e <= 0 {
		return true
	}
	tol := units.Energy(1e-12 * float64(s.capEnergy(s.VMax)))
	if s.Energy()+tol < e {
		return false
	}
	rem := s.capEnergy(s.v) - e
	if min := s.capEnergy(s.VMin); rem < min {
		rem = min
	}
	s.v = s.voltsAt(rem)
	return true
}

// voltsAt inverts ½CV² = e.
func (s *Storage) voltsAt(e units.Energy) units.Voltage {
	if e <= 0 {
		return 0
	}
	return units.Voltage(math.Sqrt(2 * float64(e) / float64(s.Capacitance)))
}

// Full reports whether the buffer is at VMax (within 1 mV).
func (s *Storage) Full() bool { return s.v >= s.VMax-units.Millivolt }
