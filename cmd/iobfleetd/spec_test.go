package main

import (
	"reflect"
	"testing"
)

// TestShardSubCanonical pins the sub-spec derivation: the coordinator
// knob is stripped, the range lands in first/end, and a final shard
// ending at the population uses the canonical end 0 spelling so it
// round-trips normalize unchanged.
func TestShardSubCanonical(t *testing.T) {
	spec := minimalSpec(7)
	spec.Shards = 2
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	subs, err := spec.Split(spec.Shards)
	if err != nil {
		t.Fatal(err)
	}
	mid, sub := sweepSpec{Spec: subs[0]}, sweepSpec{Spec: subs[1]}
	if sub.Shards != 0 {
		t.Errorf("sub-spec kept shards=%d", sub.Shards)
	}
	if sub.FirstWearer != 4 || sub.EndWearer != 0 {
		t.Errorf("final shard range (%d,%d), want (4,0 canonical)", sub.FirstWearer, sub.EndWearer)
	}
	again := sub
	if err := again.normalize(); err != nil {
		t.Errorf("canonical sub-spec fails normalize: %v", err)
	} else if !reflect.DeepEqual(again, sub) {
		t.Errorf("sub-spec changed under normalize:\n%+v\n%+v", sub, again)
	}
	if mid.FirstWearer != 0 || mid.EndWearer != 4 {
		t.Errorf("mid shard range (%d,%d), want (0,4)", mid.FirstWearer, mid.EndWearer)
	}

	// Series frames ride the merge's record re-encode (the shard Reader
	// re-pairs them, the merged Writer re-cuts the pairs at its own block
	// boundaries), so a sharded sweep accepts series_seconds and the
	// sub-specs carry the cadence through to every backend.
	withSeries := minimalSpec(7)
	withSeries.Shards = 2
	withSeries.SeriesSeconds = 0.5
	if err := withSeries.normalize(); err != nil {
		t.Errorf("sharded spec with series_seconds refused: %v", err)
	}
	seriesSubs, err := withSeries.Split(withSeries.Shards)
	if err != nil {
		t.Fatal(err)
	}
	seriesSub := sweepSpec{Spec: seriesSubs[0]}
	if seriesSub.SeriesSeconds != 0.5 {
		t.Errorf("sub-spec dropped series cadence: %v", seriesSub.SeriesSeconds)
	}
	if err := seriesSub.normalize(); err != nil {
		t.Errorf("series sub-spec fails normalize: %v", err)
	}
	if _, meta, err := seriesSub.Build(nil); err != nil || !meta.Series() {
		t.Errorf("series sub-spec builds a series-off store (meta %+v, err %v)", meta, err)
	}
}
