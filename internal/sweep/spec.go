package sweep

import (
	"fmt"
	"math"

	"wiban/internal/fleet"
	"wiban/internal/spectrum"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// Spec is one sweep: the iobfleet flag surface as JSON. Every field is
// literal — an omitted numeric field is zero, not a front-end default —
// so a persisted spec alone re-derives the sweep bit-for-bit. The one
// zero with a meaning is the feedback solver's: max_iters and tol_ppm 0
// select spectrum.DefaultMaxIters and spectrum.DefaultTolPPM, which is
// exactly what the coupling's tag (and so the store) records either way.
// Field names mirror the CLI flags (dur → dur_seconds, series →
// series_seconds, tol → tol_ppm).
type Spec struct {
	Wearers    int     `json:"wearers"`
	Seed       int64   `json:"seed"`
	DurSeconds float64 `json:"dur_seconds"`
	Workers    int     `json:"workers,omitempty"`

	PERSpread     float64 `json:"per_spread,omitempty"`
	BatterySpread float64 `json:"batt_spread,omitempty"`
	HarvesterProb float64 `json:"harvest_prob,omitempty"`
	DropNodeProb  float64 `json:"drop_prob,omitempty"`
	BLEFraction   float64 `json:"ble_frac,omitempty"`
	Drain         bool    `json:"drain,omitempty"`

	Cells   int     `json:"cells,omitempty"`
	Density float64 `json:"density,omitempty"`

	Feedback bool  `json:"feedback,omitempty"`
	MaxIters int   `json:"max_iters,omitempty"`
	TolPPM   int64 `json:"tol_ppm,omitempty"`

	SeriesSeconds float64 `json:"series_seconds,omitempty"`
	BlockSize     int     `json:"block_size,omitempty"`

	// FirstWearer/EndWearer bound a shard's wearer range (end 0 =
	// Wearers). Split sets them for sharded sweeps, not clients.
	FirstWearer int `json:"first_wearer,omitempty"`
	EndWearer   int `json:"end_wearer,omitempty"`
}

// Normalize validates the spec and resolves density into cells (the two
// are one knob), so a persisted spec is canonical: a restart re-derives
// the identical sweep without repeating the derivation.
func (s *Spec) Normalize() error {
	if s.Wearers <= 0 {
		return fmt.Errorf("non-positive population %d", s.Wearers)
	}
	if !(s.DurSeconds > 0) { // also catches NaN
		return fmt.Errorf("non-positive span %v", s.DurSeconds)
	}
	if s.Workers < 0 {
		return fmt.Errorf("negative worker count %d", s.Workers)
	}
	if s.Density != 0 {
		if !(s.Density > 0) {
			return fmt.Errorf("non-positive density %v", s.Density)
		}
		if s.Cells != 0 {
			return fmt.Errorf("cells and density are two spellings of the same knob; pass one")
		}
		s.Cells = cellsForDensity(s.Wearers, s.Density)
		s.Density = 0
	}
	if s.Cells < 0 {
		return fmt.Errorf("negative cell count %d", s.Cells)
	}
	if s.Feedback {
		if s.Cells <= 0 {
			return fmt.Errorf("feedback needs a spectrum topology; pass cells or density")
		}
		if s.MaxIters < 0 {
			return fmt.Errorf("negative feedback iteration cap %d", s.MaxIters)
		}
		if s.TolPPM < 0 {
			return fmt.Errorf("negative feedback tolerance %d", s.TolPPM)
		}
	} else if s.MaxIters != 0 || s.TolPPM != 0 {
		return fmt.Errorf("max_iters/tol_ppm are feedback knobs; set feedback too")
	}
	if s.SeriesSeconds < 0 || math.IsNaN(s.SeriesSeconds) {
		return fmt.Errorf("negative series cadence %v", s.SeriesSeconds)
	}
	if s.BlockSize < 0 {
		return fmt.Errorf("negative block size %d", s.BlockSize)
	}
	if s.FirstWearer < 0 || s.EndWearer < 0 {
		return fmt.Errorf("negative wearer range [%d,%d)", s.FirstWearer, s.EndWearer)
	}
	if s.EndWearer == s.Wearers {
		s.EndWearer = 0 // canonical full-range spelling, like telemetry.Meta's
	}
	first, end := s.Range()
	if first >= end || end > s.Wearers {
		return fmt.Errorf("wearer range [%d,%d) outside population %d", first, end, s.Wearers)
	}
	return s.generator().Validate()
}

// Range is the spec's wearer interval [first, end); end 0 reads as the
// whole population, mirroring telemetry.Meta.Range.
func (s *Spec) Range() (int, int) {
	end := s.EndWearer
	if end == 0 {
		end = s.Wearers
	}
	return s.FirstWearer, end
}

// cellsForDensity derives the cell count hitting a target wearers-per-
// cell: ceil(wearers/density), never below 1. Fractional densities are
// meaningful — density 0.5 asks for twice as many cells as wearers.
func cellsForDensity(wearers int, density float64) int {
	cells := int(math.Ceil(float64(wearers) / density))
	if cells < 1 {
		return 1
	}
	return cells
}

// generator builds the population generator the spec describes.
func (s *Spec) generator() *fleet.Generator {
	return &fleet.Generator{
		Base:          fleet.DefaultBase(),
		PERSpread:     s.PERSpread,
		BatterySpread: s.BatterySpread,
		HarvesterProb: s.HarvesterProb,
		DropNodeProb:  s.DropNodeProb,
		BLEFraction:   s.BLEFraction,
		DrainBattery:  s.Drain,
	}
}

// coupling builds the spectrum coupling of a coupled spec.
func (s *Spec) coupling() *fleet.Coupling {
	c := &fleet.Coupling{Cells: s.Cells, Model: spectrum.Default()}
	if s.Feedback {
		c.Feedback, c.MaxIters, c.TolPPM = true, s.MaxIters, s.TolPPM
	}
	return c
}

// Build assembles the runnable fleet and the telemetry metadata of a
// normalized spec, with the engine's Stats hook attached (nil for none).
// A shard spec yields a range-bounded fleet (Start/End), whose coupled
// phase 1 still covers the whole population, and a meta whose
// FirstWearer/EndWearer mark the store as a shard store.
func (s *Spec) Build(stats *fleet.Stats) (*fleet.Fleet, telemetry.Meta, error) {
	gen := s.generator()
	first, end := s.Range()
	f := &fleet.Fleet{
		Wearers:  s.Wearers,
		Seed:     s.Seed,
		Scenario: gen.Scenario(),
		// The coupled engine's phase 1 uses the generator's allocation-free
		// load pass instead of regenerating every scenario (no-op uncoupled).
		Loads:   gen.LoadScenario(),
		Span:    units.Duration(s.DurSeconds),
		Workers: s.Workers,
		Start:   first,
		Series:  units.Duration(s.SeriesSeconds),
		Stats:   stats,
	}
	if end != s.Wearers {
		f.End = end
	}
	tag := gen.Tag()
	if s.Cells > 0 {
		f.Coupling = s.coupling()
		tag += ";" + f.Coupling.Tag()
	}
	meta := telemetry.Meta{
		FleetSeed:   s.Seed,
		Wearers:     s.Wearers,
		SpanSeconds: s.DurSeconds,
		Scenario:    tag,
		BlockSize:   s.BlockSize,
		Version:     telemetry.CreateVersion(s.SeriesSeconds > 0),
		Cells:       s.Cells,
		Feedback:    s.Feedback && s.Cells > 0,

		SeriesCadenceSeconds: s.SeriesSeconds,

		FirstWearer: s.FirstWearer,
		EndWearer:   s.EndWearer,
	}
	return f, meta, nil
}
