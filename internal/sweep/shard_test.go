package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wiban/internal/fleet"
	"wiban/internal/spectrum"
	"wiban/internal/telemetry"
)

// checkTiling fails the test unless shards tile [0, wearers) with
// contiguous, non-empty ranges, each shard re-normalizing unchanged.
func checkTiling(t *testing.T, wearers int, shards []Spec) {
	t.Helper()
	next := 0
	for k, shard := range shards {
		first, end := shard.Range()
		if first != next || end <= first {
			t.Fatalf("shard %d covers [%d,%d), want a non-empty range from %d", k, first, end, next)
		}
		again := shard
		if err := again.Normalize(); err != nil {
			t.Fatalf("shard %d refused by Normalize: %v", k, err)
		}
		if !reflect.DeepEqual(again, shard) {
			t.Fatalf("shard %d is not canonical:\n%+v\n%+v", k, shard, again)
		}
		next = end
	}
	if next != wearers {
		t.Fatalf("shards end at wearer %d, population is %d", next, wearers)
	}
}

// TestSplit pins the shard tiling: contiguous ranges covering the
// population, sizes differing by at most one with the remainder up
// front, every shard canonical (the final one spells its end 0) and
// carrying the sweep's series cadence into a series store. Shard counts
// outside [1, Wearers] are refused.
func TestSplit(t *testing.T) {
	for _, c := range []struct {
		wearers, shards int
		want            [][2]int
	}{
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{5, 1, [][2]int{{0, 5}}},
		{3, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
	} {
		spec := Spec{Wearers: c.wearers, Seed: 7, DurSeconds: 1, SeriesSeconds: 0.5}
		shards, err := spec.Split(c.shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != len(c.want) {
			t.Fatalf("Split(%d) of %d wearers made %d shards", c.shards, c.wearers, len(shards))
		}
		checkTiling(t, c.wearers, shards)
		for k, shard := range shards {
			wantEnd := c.want[k][1]
			if wantEnd == c.wearers {
				wantEnd = 0
			}
			if shard.FirstWearer != c.want[k][0] || shard.EndWearer != wantEnd {
				t.Errorf("Split(%d) of %d wearers: shard %d spells (%d,%d), want (%d,%d)",
					c.shards, c.wearers, k, shard.FirstWearer, shard.EndWearer, c.want[k][0], wantEnd)
			}
			if _, meta, err := shard.Build(nil); err != nil || !meta.Series() {
				t.Errorf("shard %d builds a series-off store (meta %+v, err %v)", k, meta, err)
			}
		}
	}
	spec := Spec{Wearers: 3, Seed: 7, DurSeconds: 1}
	for _, n := range []int{-1, 0, 4} {
		if _, err := spec.Split(n); err == nil {
			t.Errorf("Split(%d) of 3 wearers accepted", n)
		}
	}
}

// TestPresolveRejects: the loads parts come from other processes, so
// Presolve checks them before use — a member window that does not match
// its shard's range, a table naming a cell outside the spec's topology,
// and a parts count that does not match the shards are refused, and a
// refused set ships no phase-1 results to any shard.
func TestPresolveRejects(t *testing.T) {
	spec := Spec{Wearers: 12, Seed: 5, DurSeconds: 1, BLEFraction: 0.5, Cells: 3, Feedback: true}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mutate func([]Loads) []Loads
		want   string
	}{
		{"member count", func(p []Loads) []Loads {
			p[1].Members = p[1].Members[1:]
			return p
		}, "shard 1 returned 5 members for range [6,12)"},
		{"cell count", func(p []Loads) []Loads {
			p[0].Loads = append(p[0].Loads, spectrum.CellLoad{Cell: 3, PPM: 1})
			return p
		}, "shard 0 loads"},
		{"part count", func(p []Loads) []Loads { return p[:1] }, "1 loads parts for 2 shards"},
	} {
		shards, err := spec.Split(2)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]Loads, len(shards))
		for k := range shards {
			if parts[k], err = shards[k].Gather(nil); err != nil {
				t.Fatal(err)
			}
		}
		err = spec.Presolve(shards, c.mutate(parts), nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Presolve returned %v, want an error containing %q", c.name, err, c.want)
		}
		for k, shard := range shards {
			if shard.Presolved != nil {
				t.Errorf("%s: refused parts shipped phase-1 results to shard %d", c.name, k)
			}
		}
	}
}

// TestShardedPhase1MatchesInProcess is the shard protocol without its
// transport: Split, a Gather per shard, Presolve, then every shard —
// round-tripped through JSON as the dispatch round ships it — run into
// its own store, and the stores merged through one aggregator must
// reproduce an unsharded run's fingerprint and store bytes in both
// coupling modes. The solve counters must match the unsharded run's
// too: both phase 1s go through the one fleet.Coupling.Solve.
func TestShardedPhase1MatchesInProcess(t *testing.T) {
	for _, feedback := range []bool{false, true} {
		name := "first-order"
		if feedback {
			name = "feedback"
		}
		t.Run(name, func(t *testing.T) {
			spec := Spec{Wearers: 120, Seed: 12, DurSeconds: 10, Workers: 2, BLEFraction: 0.5,
				Cells: 8, Feedback: feedback, BlockSize: 16}
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			var single fleet.Stats
			f, meta, err := spec.Build(&single)
			if err != nil {
				t.Fatal(err)
			}
			truth := filepath.Join(dir, "truth.wtl")
			s, err := Open(f, meta, truth, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}

			var sharded fleet.Stats
			shards, err := spec.Split(3)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]Loads, len(shards))
			for k := range shards {
				if parts[k], err = shards[k].Gather(&sharded); err != nil {
					t.Fatal(err)
				}
			}
			if err := spec.Presolve(shards, parts, &sharded); err != nil {
				t.Fatal(err)
			}
			paths := make([]string, len(shards))
			for k := range shards {
				raw, err := json.Marshal(&shards[k])
				if err != nil {
					t.Fatal(err)
				}
				var wire Spec
				if err := json.Unmarshal(raw, &wire); err != nil {
					t.Fatal(err)
				}
				if err := wire.Normalize(); err != nil {
					t.Fatal(err)
				}
				paths[k] = filepath.Join(dir, fmt.Sprintf("shard%d.wtl", k))
				run(t, wire, paths[k], false)
			}
			agg := fleet.NewStreamAggregator(f.Span)
			merged := filepath.Join(dir, "merged.wtl")
			if _, _, err := telemetry.MergeShards(merged, paths, agg.Consume); err != nil {
				t.Fatal(err)
			}

			if got, want := agg.Report().Fingerprint(), s.Agg.Report().Fingerprint(); got != want {
				t.Errorf("sharded fingerprint %s, unsharded %s", got, want)
			}
			if !bytes.Equal(readStore(t, merged), readStore(t, truth)) {
				t.Error("merged shard stores differ byte-for-byte from the unsharded store")
			}
			if got, want := sharded.EquilibriumIters.Load(), single.EquilibriumIters.Load(); got != want {
				t.Errorf("equilibrium iterations: sharded %d, unsharded %d", got, want)
			}
			if got, want := sharded.EquilibriumCells.Load(), single.EquilibriumCells.Load(); got != want {
				t.Errorf("equilibrium cells: sharded %d, unsharded %d", got, want)
			}
			if feedback && single.EquilibriumCells.Load() != int64(spec.Cells) {
				t.Errorf("unsharded run solved %d cells, want %d", single.EquilibriumCells.Load(), spec.Cells)
			}
		})
	}
}
