package energy

// Accessors and renderings that only these tests use; no binary links
// them.

import (
	"fmt"

	"wiban/internal/units"
)

// String summarizes the cell.
func (b *Battery) String() string {
	return fmt.Sprintf("%s (%.0f mAh @ %v)", b.Name, b.CapacityMAh, b.Voltage)
}

// Battery returns the underlying cell.
func (s *State) Battery() *Battery { return s.batt }

// Remaining returns the energy left.
func (s *State) Remaining() units.Energy { return s.remaining }

// Drained returns the cumulative energy drawn.
func (s *State) Drained() units.Energy { return s.drained }

// String summarizes the harvester.
func (h *Harvester) String() string {
	return fmt.Sprintf("%s (%v–%v, typ %v)", h.Name, h.Min, h.Max, h.Typ)
}
