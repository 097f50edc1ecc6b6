package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"wiban/internal/fleet"
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

// TestShardedPhase1MatchesInProcess is a sharded sweep without its
// transport: Split, then every shard — round-tripped through JSON as
// the dispatch round ships it — runs phase 1 itself and its range into
// its own store, and the stores merged through one aggregator must
// reproduce an unsharded run's fingerprint and store bytes in both
// coupling modes. Every shard solves the same full-population
// equilibrium, so the solve counters read shards × the unsharded run's.
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
				sf, smeta, err := wire.Build(&sharded)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := Open(sf, smeta, paths[k], false)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ss.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
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
			n := int64(len(shards))
			if got, want := sharded.EquilibriumIters.Load(), n*single.EquilibriumIters.Load(); got != want {
				t.Errorf("equilibrium iterations: sharded %d, want %d shards × unsharded = %d", got, n, want)
			}
			if got, want := sharded.EquilibriumCells.Load(), n*single.EquilibriumCells.Load(); got != want {
				t.Errorf("equilibrium cells: sharded %d, want %d shards × unsharded = %d", got, n, want)
			}
			if feedback && single.EquilibriumCells.Load() != int64(spec.Cells) {
				t.Errorf("unsharded run solved %d cells, want %d", single.EquilibriumCells.Load(), spec.Cells)
			}
		})
	}
}
