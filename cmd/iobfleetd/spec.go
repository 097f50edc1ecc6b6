package main

import (
	"fmt"

	"wiban/internal/sweep"
)

// sweepSpec is one sweep submission: a sweep.Spec plus the daemon's own
// dispatch fields. The embedded Spec keeps the JSON flat, so submissions
// and persisted sidecars spell every field at the top level.
type sweepSpec struct {
	sweep.Spec

	// Shards, when positive, makes the receiving daemon a coordinator: it
	// splits [0, Wearers) into this many contiguous ranges, dispatches
	// each as a shard sub-sweep to a backend (-backends, or itself), and
	// merges the returned stores into one bit-identical to a 1-process
	// run. A coordinator spec carries none of the shard-side fields.
	Shards int `json:"shards,omitempty"`

	// Label and SeedStoreURL are the shard side of the protocol — set by
	// a coordinator on the sub-specs it dispatches (beside the Spec's
	// first_wearer/end_wearer), not by clients. Label makes
	// re-dispatch idempotent (a resubmitted label returns the existing
	// sweep instead of a duplicate); SeedStoreURL points at the
	// coordinator's partial copy of the shard store, so a replacement
	// backend resumes from the blocks already replicated instead of
	// re-simulating the shard from scratch.
	Label        string `json:"label,omitempty"`
	SeedStoreURL string `json:"seed_store_url,omitempty"`
}

// normalize is sweep.Spec.Normalize plus the check that a spec is
// either a coordinator or a shard, never both.
func (s *sweepSpec) normalize() error {
	if err := s.Spec.Normalize(); err != nil {
		return err
	}
	if s.Shards < 0 || s.Shards > s.Wearers {
		return fmt.Errorf("shard count %d outside [0, %d]", s.Shards, s.Wearers)
	}
	if s.Shards > 0 && (s.FirstWearer != 0 || s.EndWearer != 0 || s.Label != "" || s.SeedStoreURL != "") {
		return fmt.Errorf("shards is a coordinator knob; first_wearer/end_wearer/label/seed_store_url describe one shard — a spec carries one side only")
	}
	return nil
}
