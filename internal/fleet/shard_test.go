package fleet

// Tests for range-bounded fleets, the engine half of a sharded sweep:
// shards simulating contiguous wearer ranges must concatenate into the
// exact single-process sweep.

import (
	"testing"

	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// shardTiling is the 3-way uneven split the shard tests run against —
// deliberately not aligned to any block or chunk size.
var shardTiling = [][2]int{{0, 41}, {41, 83}, {83, 120}}

// rangeFleet bounds a fleet to one shard's wearer range.
func rangeFleet(f *Fleet, lo, hi int) *Fleet {
	g := *f
	g.Start = lo
	if hi != g.Wearers {
		g.End = hi
	} else {
		g.End = 0
	}
	return &g
}

// TestShardRangeRunBitIdentical is the shard contract: range-bounded
// coupled fleets, each solving phase 1 over the full population itself,
// concatenate into the fingerprint of an uninterrupted single-process
// run. Both coupling modes, because feedback adds the equilibrium solve.
func TestShardRangeRunBitIdentical(t *testing.T) {
	const wearers, cells = 120, 8
	for _, feedback := range []bool{false, true} {
		name := "first-order"
		if feedback {
			name = "feedback"
		}
		t.Run(name, func(t *testing.T) {
			build := func() *Fleet {
				if feedback {
					return feedbackFleet(wearers, 4, 99, cells)
				}
				return coupledFleet(wearers, 4, 99, cells)
			}
			want, _, err := build().Run()
			if err != nil {
				t.Fatal(err)
			}
			agg := NewStreamAggregator(30 * units.Second)
			for _, rng := range shardTiling {
				if _, err := rangeFleet(build(), rng[0], rng[1]).Stream(agg); err != nil {
					t.Fatal(err)
				}
			}
			if got := agg.Report(); got.Fingerprint() != want.Fingerprint() {
				t.Errorf("shard concatenation fingerprint %q != single-process %q",
					got.Fingerprint(), want.Fingerprint())
			}
		})
	}
}

// TestStreamEndBounded: End stops the stream exactly at the bound, so a
// shard emits its range and nothing more; End validation mirrors Start.
func TestStreamEndBounded(t *testing.T) {
	var got []int
	sink := SinkFunc(func(rec telemetry.Record) error {
		got = append(got, rec.Wearer)
		return nil
	})
	f := testFleet(80, 4, 21)
	f.Start, f.End = 33, 61
	if _, err := f.Stream(sink); err != nil {
		t.Fatal(err)
	}
	if len(got) != 61-33 {
		t.Fatalf("range stream emitted %d records, want %d", len(got), 61-33)
	}
	for i, w := range got {
		if w != 33+i {
			t.Fatalf("record %d has wearer %d, want %d", i, w, 33+i)
		}
	}

	bad := testFleet(80, 4, 21)
	bad.End = 81
	if _, _, err := bad.Run(); err == nil {
		t.Error("End beyond the population accepted")
	}
	inverted := testFleet(80, 4, 21)
	inverted.Start, inverted.End = 50, 40
	if _, _, err := inverted.Run(); err == nil {
		t.Error("Start past End accepted")
	}
}

// TestStreamAggregatorWearers: the fold count is what a resumed sweep
// restarts from, so it must track exactly the records consumed.
func TestStreamAggregatorWearers(t *testing.T) {
	agg := NewStreamAggregator(30 * units.Second)
	if agg.Wearers() != 0 {
		t.Fatalf("fresh aggregator reports %d wearers", agg.Wearers())
	}
	f := testFleet(24, 2, 7)
	if _, err := f.Stream(agg); err != nil {
		t.Fatal(err)
	}
	if agg.Wearers() != 24 {
		t.Errorf("aggregator reports %d wearers, want 24", agg.Wearers())
	}
}
