// Package spectrum models cross-wearer co-channel interference: the
// density-dependent loss a fleet of co-located wearers inflicts on each
// other's radiative (RF) links, which body-coupled EQS/MQS links escape.
//
// The paper's argument against RF for body-area networks is not only the
// per-link energy geometry (see internal/channel): a 2.4 GHz radio
// radiates into a room-scale bubble, so every co-located wearer's traffic
// lands in every other wearer's receiver. The unlicensed band is a shared
// resource, and as wearers-per-room grows the CSMA/ALOHA collision
// probability — and therefore retransmissions, energy and packet loss —
// grows with it. EQS/MQS body-channel links confine the signal to the
// wearer's own body, so their loss is independent of fleet density; the
// fleet-scale contrast between the two is the paper's headline story.
//
// The model is deliberately cell-granular, not geometric: wearers hash
// into spatial cells (rooms, train cars, gym floors), each cell carries
// the sum of its members' offered RF airtime (the cell's offered load G
// in erlangs), and a member's collision probability follows the classic
// unslotted-contention approximation p = 1 − e^(−β·G_foreign), where
// G_foreign excludes the member's own load (a wearer alone in a cell
// sees no interference) and β is the vulnerability-window scale (2 for
// pure ALOHA, smaller with effective carrier sensing).
//
// Determinism contract: cell assignment is a pure integer function of the
// wearer's scenario seed (CellOf), and offered load accumulates in
// integer parts-per-million (LoadTable), so per-cell totals are exact and
// order-independent — any parallel schedule of the fleet engine's
// phase-1 reduction produces bit-identical loads.
package spectrum

import (
	"fmt"
	"math"

	"wiban/internal/desim"
)

// PPM is the integer airtime unit: one part-per-million of a band's
// capacity. Offered loads are accumulated in PPM so that per-cell sums
// are exact integer arithmetic, associative and commutative — the
// foundation of the fleet engine's order-independent phase-1 reduction.
const PPM = 1_000_000

// Erlangs converts an integer PPM airtime load to erlangs.
func Erlangs(ppm int64) float64 { return float64(ppm) / PPM }

// ToPPM converts a fractional airtime duty (erlangs) to integer PPM,
// rounding half up and clamping negatives to zero.
func ToPPM(duty float64) int64 {
	if duty <= 0 {
		return 0
	}
	return int64(duty*PPM + 0.5)
}

// CellOf deterministically assigns the wearer with the given scenario
// seed to one of cells spatial cells. It is a pure function (the shared
// splitmix64 finalizer desim.Mix64, uniform modulo the cell count), so
// the assignment is identical on every rerun and resume regardless of
// worker scheduling.
func CellOf(scenarioSeed int64, cells int) int {
	if cells <= 1 {
		return 0
	}
	return int(desim.Mix64(uint64(scenarioSeed)) % uint64(cells))
}

// LoadTable is the per-cell offered-load accumulator of the fleet
// engine's phase 1: integer PPM airtime sums per cell. Integer addition
// commutes, so any order of Add calls — and any merge order of
// per-worker partial tables — yields identical totals. Storage is
// sparse: memory scales with populated cells (at most the wearer
// count), never with the nominal cell count, so a near-isolated sweep
// (cells ≫ wearers) costs nothing.
type LoadTable struct {
	cells int
	ppm   map[int]int64
}

// NewLoadTable returns an empty table over the given cell count.
func NewLoadTable(cells int) (*LoadTable, error) {
	if cells <= 0 {
		return nil, fmt.Errorf("spectrum: non-positive cell count %d", cells)
	}
	return &LoadTable{cells: cells, ppm: make(map[int]int64)}, nil
}

// Add accumulates ppm airtime into cell.
func (t *LoadTable) Add(cell int, ppm int64) error {
	if cell < 0 || cell >= t.cells {
		return fmt.Errorf("spectrum: cell %d outside [0,%d)", cell, t.cells)
	}
	t.ppm[cell] += ppm
	return nil
}

// Merge folds another table (a worker's partial sums) into t.
func (t *LoadTable) Merge(o *LoadTable) error {
	if o.cells != t.cells {
		return fmt.Errorf("spectrum: merging table of %d cells into %d", o.cells, t.cells)
	}
	for c, v := range o.ppm {
		t.ppm[c] += v
	}
	return nil
}

// TotalPPM reports a cell's total offered load in PPM (0 for an
// out-of-range or unpopulated cell).
func (t *LoadTable) TotalPPM(cell int) int64 { return t.ppm[cell] }

// ForeignPPM reports the co-channel load a member contributing ownPPM to
// cell sees from everyone else: the cell total minus its own share,
// clamped at zero. A wearer alone in its cell sees no interference.
func (t *LoadTable) ForeignPPM(cell int, ownPPM int64) int64 {
	f := t.TotalPPM(cell) - ownPPM
	if f < 0 {
		return 0
	}
	return f
}

// Model is the co-channel collision approximation: it maps a cell's
// foreign offered load (erlangs) to the probability that a given
// transmission overlaps a colliding one. The curve is the classic
// unslotted-contention form p = 1 − e^(−β·G), saturating at MaxCollision
// so a pathological cell still delivers an occasional packet (capture
// effect) and effective PERs stay inside the simulator's [0,1) domain.
type Model struct {
	// Beta is the vulnerability-window scale: 2 reproduces pure ALOHA
	// (a packet is vulnerable for twice its own airtime), values below 1
	// model CSMA with effective carrier sensing.
	Beta float64
	// MaxCollision caps the collision probability in saturation.
	MaxCollision float64
}

// Default returns the stock BLE-in-a-crowded-room model: ALOHA-grade
// vulnerability (hidden bodies defeat carrier sensing between wearers)
// capped at 95% collisions.
func Default() *Model {
	return &Model{Beta: 2, MaxCollision: 0.95}
}

// Validate rejects out-of-range model parameters.
func (m *Model) Validate() error {
	if m.Beta <= 0 || math.IsNaN(m.Beta) || math.IsInf(m.Beta, 0) {
		return fmt.Errorf("spectrum: non-positive vulnerability scale beta %v", m.Beta)
	}
	if m.MaxCollision < 0 || m.MaxCollision >= 1 {
		return fmt.Errorf("spectrum: collision cap %v outside [0,1)", m.MaxCollision)
	}
	return nil
}

// CollisionProb maps a foreign offered load (erlangs) to the collision
// probability a member's transmissions suffer. It is 0 at zero load,
// strictly increasing, and capped at MaxCollision.
func (m *Model) CollisionProb(foreignErlangs float64) float64 {
	if foreignErlangs <= 0 {
		return 0
	}
	p := 1 - math.Exp(-m.Beta*foreignErlangs)
	if p > m.MaxCollision {
		p = m.MaxCollision
	}
	return p
}

// Tag renders the model parameters as a stable string for telemetry
// metadata, so a resumed sweep can refuse a store coupled under a
// different interference model.
func (m *Model) Tag() string {
	return fmt.Sprintf("csma:beta=%g,cap=%g", m.Beta, m.MaxCollision)
}
