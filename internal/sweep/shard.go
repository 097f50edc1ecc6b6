package sweep

import (
	"fmt"

	"wiban/internal/fleet"
	"wiban/internal/spectrum"
)

// Loads is one shard's phase-1 gather on the wire: its range's partial
// per-cell load table and, in feedback mode, its members in wearer order.
type Loads struct {
	Loads   []spectrum.CellLoad `json:"loads"`
	Members []spectrum.Member   `json:"members,omitempty"`
}

// Split tiles a normalized spec's population [0, Wearers) into n shards:
// the same sweep over contiguous wearer ranges, sizes differing by at
// most one with the remainder up front, each canonical through
// Normalize. The tiling is deterministic, so a restarted coordinator
// re-derives the same shards.
func (s *Spec) Split(n int) ([]Spec, error) {
	if n < 1 || n > s.Wearers {
		return nil, fmt.Errorf("shard count %d outside [1, %d]", n, s.Wearers)
	}
	base, extra := s.Wearers/n, s.Wearers%n
	shards := make([]Spec, n)
	first := 0
	for k := range shards {
		end := first + base
		if k < extra {
			end++
		}
		shard := *s
		shard.FirstWearer, shard.EndWearer, shard.Presolved = first, end, nil
		if err := shard.Normalize(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		shards[k] = shard
		first = end
	}
	return shards, nil
}

// Gather runs a coupled shard's half of phase 1, the offered-load gather
// over its own wearer range (fleet.GatherLoads), counted in stats.
func (s *Spec) Gather(stats *fleet.Stats) (Loads, error) {
	if s.Cells <= 0 {
		return Loads{}, fmt.Errorf("loads gather on an uncoupled spec")
	}
	f, _, err := s.Build(stats)
	if err != nil {
		return Loads{}, err
	}
	table, members, err := f.GatherLoads()
	if err != nil {
		return Loads{}, err
	}
	return Loads{Loads: table.Export(), Members: members}, nil
}

// Presolve is the coordinator's half of phase 1: shards is the spec's
// Split and parts[k] shard k's Gather. It merges the partial tables, in
// feedback mode concatenates the members and runs fleet.Coupling.Solve
// (counted in stats), and sets each shard's Presolved to the merged
// table plus its window of the solution — exactly the phase 1 of a
// single-process run. Parts come from other processes, so each is
// checked before use; a rejected set leaves the shards untouched.
func (s *Spec) Presolve(shards []Spec, parts []Loads, stats *fleet.Stats) error {
	if len(parts) != len(shards) {
		return fmt.Errorf("%d loads parts for %d shards", len(parts), len(shards))
	}
	total, err := spectrum.NewLoadTable(s.Cells)
	if err != nil {
		return err
	}
	var members []spectrum.Member
	if s.Feedback {
		members = make([]spectrum.Member, s.Wearers)
	}
	for k, p := range parts {
		part, err := spectrum.ImportTable(s.Cells, p.Loads)
		if err != nil {
			return fmt.Errorf("shard %d loads: %w", k, err)
		}
		if err := total.Merge(part); err != nil {
			return err
		}
		if members != nil {
			first, end := shards[k].Range()
			if len(p.Members) != end-first {
				return fmt.Errorf("shard %d returned %d members for range [%d,%d)",
					k, len(p.Members), first, end)
			}
			copy(members[first:end], p.Members)
		}
	}
	var res *spectrum.Result
	if members != nil {
		if res, err = s.coupling().Solve(members, stats); err != nil {
			return err
		}
	}
	loads := total.Export()
	for k := range shards {
		pre := &Presolved{Loads: loads}
		if res != nil {
			first, end := shards[k].Range()
			pre.Eq = &Equilibrium{
				Table: res.Table().Export(),
				Iters: res.ExportIters(),
				Own:   res.ExportOwn(first, end),
			}
		}
		shards[k].Presolved = pre
	}
	return nil
}
