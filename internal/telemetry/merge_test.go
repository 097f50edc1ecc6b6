package telemetry

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeShard writes the records of [first, end) into a shard store
// carrying that range in its meta (end == wearers spelled canonically
// as 0, the way a coordinator's sub-spec does).
func writeShard(t *testing.T, dir string, n, blockSize, first, end int) string {
	t.Helper()
	return writeShardStore(t, dir, testMeta(n, blockSize), first, end, testRecord, false)
}

// writeSeriesShard is writeShard lifted to a series-enabled v3 store
// whose records carry the deterministic seriesRecord samples.
func writeSeriesShard(t *testing.T, dir string, n, blockSize, first, end int) string {
	t.Helper()
	return writeShardStore(t, dir, seriesMeta(n, blockSize), first, end, seriesRecord, false)
}

// writeShardStore writes mk(first..end) into a shard store of meta's
// sweep. With legacy set it lays the blocks out the way writers did
// before they cut on the absolute grid — at FirstWearer+k·BlockSize,
// encoded with encodeBlock/encodeSeriesFrame — so a merge of it must
// take the re-encode path for every pair off the merged grid.
func writeShardStore(tb testing.TB, dir string, meta Meta, first, end int, mk func(int) Record, legacy bool) string {
	tb.Helper()
	meta.FirstWearer = first
	if end != meta.Wearers {
		meta.EndWearer = end
	}
	path := filepath.Join(dir, "shard.wtl")
	w, err := Create(path, meta)
	if err != nil {
		tb.Fatal(err)
	}
	for lo := first; lo < end; lo += meta.BlockSize {
		hi := min(lo+meta.BlockSize, end)
		recs := make([]Record, 0, hi-lo)
		for i := lo; i < hi; i++ {
			recs = append(recs, mk(i))
		}
		if !legacy {
			for _, rec := range recs {
				if err := w.Consume(rec); err != nil {
					tb.Fatal(err)
				}
			}
			continue
		}
		var buf columnBuf
		frame := encodeBlock(nil, &buf, recs, meta.Version)
		serOff := int64(0)
		if meta.Series() {
			serOff = w.Offset() + int64(len(frame))
			frame = encodeSeriesFrame(frame, &buf, recs)
		}
		w.next = hi
		if err := w.appendPair(frame, entryFor(w.Offset(), serOff, recs)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// mergeLayouts are the shard tilings of a 37-wearer, block-8 sweep the
// merge byte-identity tests cover: seams off the merged grid (13 and 25
// fall mid-block, so each seam's short blocks re-encode while the merged
// writer buffers borrowed records across a shard switch), seams on it
// (every pair splices), and a middle shard laid out by an older writer
// (every one of its pairs re-encodes).
var mergeLayouts = []struct {
	name   string
	ranges [][2]int
	legacy int // index of the shard written in the legacy layout, or -1
}{
	{"off-grid", [][2]int{{0, 13}, {13, 25}, {25, 37}}, -1},
	{"on-grid", [][2]int{{0, 16}, {16, 32}, {32, 37}}, -1},
	{"legacy", [][2]int{{0, 13}, {13, 25}, {25, 37}}, 1},
}

// sameStore asserts the store at got — data file and checkpoint sidecar
// — is byte-identical to the one at want.
func sameStore(tb testing.TB, got, want string) {
	tb.Helper()
	for _, p := range [][2]string{{got, want}, {CheckpointPath(got), CheckpointPath(want)}} {
		g, err := os.ReadFile(p[0])
		if err != nil {
			tb.Fatal(err)
		}
		w, err := os.ReadFile(p[1])
		if err != nil {
			tb.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			tb.Fatalf("merged %s differs from the single writer's: %d vs %d bytes", filepath.Base(p[0]), len(g), len(w))
		}
	}
}

// TestMergeShardsByteIdentical is the merge's core contract: shards
// tiling [0, n) — seams on or off the grid, any shard layout — merge
// into a store byte-identical to the one a single writer would have
// produced — header, blocks, checkpoint and trailing index — with the
// sink seeing every record in wearer order.
func TestMergeShardsByteIdentical(t *testing.T) {
	const n, blockSize = 37, 8
	full := writeStore(t, n, blockSize)
	for _, l := range mergeLayouts {
		t.Run(l.name, func(t *testing.T) {
			paths := make([]string, len(l.ranges))
			for i, rng := range l.ranges {
				paths[i] = writeShardStore(t, t.TempDir(), testMeta(n, blockSize), rng[0], rng[1], testRecord, i == l.legacy)
			}
			dst := filepath.Join(t.TempDir(), "merged.wtl")
			next := 0
			blocks, size, err := MergeShards(dst, paths, func(rec Record) error {
				if rec.Wearer != next {
					t.Fatalf("sink saw wearer %d, want %d", rec.Wearer, next)
				}
				if want := testRecord(next); len(rec.Nodes) != len(want.Nodes) || rec.Events != want.Events {
					t.Fatalf("sink record %d diverged from the shard's", next)
				}
				next++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != n {
				t.Fatalf("sink saw %d records, want %d", next, n)
			}
			sameStore(t, dst, full)
			if st, _ := os.Stat(dst); st.Size() != size {
				t.Errorf("MergeShards reported size %d, file is %d", size, st.Size())
			}
			r, err := Open(dst)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if recs := drain(t, r); len(recs) != n {
				t.Fatalf("merged store holds %d records, want %d", len(recs), n)
			}
			if r.Blocks() != blocks {
				t.Errorf("MergeShards reported %d blocks, reader sees %d", blocks, r.Blocks())
			}
		})
	}
}

// TestMergeShardsSeriesByteIdentical extends the merge's core contract
// to series-enabled stores: spliced and re-encoded record+series pairs
// alike must merge into a store byte-identical to the single-writer
// -series run — samples, NaN gap markers, checkpoint and the trailing
// query index all included. The sink sees records without their samples;
// a Reader over the merged store replays every one.
func TestMergeShardsSeriesByteIdentical(t *testing.T) {
	const n, blockSize = 37, 8
	full := writeSeriesStore(t, n, blockSize)
	for _, l := range mergeLayouts {
		t.Run(l.name, func(t *testing.T) {
			paths := make([]string, len(l.ranges))
			for i, rng := range l.ranges {
				paths[i] = writeShardStore(t, t.TempDir(), seriesMeta(n, blockSize), rng[0], rng[1], seriesRecord, i == l.legacy)
			}
			dst := filepath.Join(t.TempDir(), "merged.wtl")
			next := 0
			blocks, size, err := MergeShards(dst, paths, func(rec Record) error {
				if rec.Wearer != next {
					t.Fatalf("sink saw wearer %d, want %d", rec.Wearer, next)
				}
				if rec.Series != nil {
					t.Fatalf("sink record %d carries %d series points, want none", next, len(rec.Series))
				}
				next++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != n {
				t.Fatalf("sink saw %d records, want %d", next, n)
			}
			sameStore(t, dst, full)
			if st, _ := os.Stat(dst); st.Size() != size {
				t.Errorf("MergeShards reported size %d, file is %d", size, st.Size())
			}

			// The merged store must replay every sample, survive a strict
			// audit (its trailing index restates the blocks), and serve
			// index-pruned queries identically to the single-writer store.
			r, err := Open(dst)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			recs := drain(t, r)
			if len(recs) != n || r.Blocks() != blocks {
				t.Fatalf("merged store holds %d records in %d blocks (MergeShards said %d)", len(recs), r.Blocks(), blocks)
			}
			points := int64(0)
			for i := range recs {
				if want := seriesRecord(i); !samePoints(recs[i].Series, want.Series) {
					t.Fatalf("merged record %d: series diverged from the shard's samples", i)
				}
				points += int64(len(recs[i].Series))
			}
			if r.SeriesPoints() != points || points == 0 {
				t.Errorf("merged store counts %d series points, replays %d", r.SeriesPoints(), points)
			}
			rs, err := OpenStrict(dst)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			if audit := drain(t, rs); len(audit) != n {
				t.Fatalf("strict audit of merged store read %d records, want %d", len(audit), n)
			}
			for _, q := range []Query{
				{Metric: "charge", Cell: -1, Node: -1},
				{Metric: "per", FromMS: 1000, ToMS: 2500, Cell: 3, Node: -1},
			} {
				m, err := QueryStore(dst, q)
				if err != nil {
					t.Fatal(err)
				}
				s, err := QueryStore(full, q)
				if err != nil {
					t.Fatal(err)
				}
				if m.Points != s.Points || m.Gaps != s.Gaps || m.Sum != s.Sum || m.Min != s.Min || m.Max != s.Max {
					t.Errorf("query %+v over merged store diverged: got {pts=%d gaps=%d sum=%v}, want {pts=%d gaps=%d sum=%v}",
						q, m.Points, m.Gaps, m.Sum, s.Points, s.Gaps, s.Sum)
				}
			}
		})
	}
}

// TestShardBlocksOnGrid pins the grid rule the splice rests on: a shard
// store starting off the BlockSize grid commits one short first block,
// and every later block starts at a multiple of BlockSize — the merged
// store's boundaries — series frames paired alike.
func TestShardBlocksOnGrid(t *testing.T) {
	const n, blockSize = 100, 8
	for _, first := range []int{0, 1, 7, 8, 13, 60, 99} {
		path := writeSeriesShard(t, t.TempDir(), n, blockSize, first, n)
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Each(func(Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if got := r.Records(); got != n-first {
			t.Fatalf("shard from %d holds %d records, want %d", first, got, n-first)
		}
		for i, e := range r.entries {
			if e.serOffset == 0 {
				t.Fatalf("shard from %d: block %d has no series frame", first, i)
			}
			if i == 0 {
				if want := min(blockSize-first%blockSize, n-first); e.firstWearer != first || e.records != want {
					t.Errorf("shard from %d: first block holds [%d,+%d), want [%d,+%d)",
						first, e.firstWearer, e.records, first, want)
				}
				continue
			}
			if e.firstWearer%blockSize != 0 {
				t.Errorf("shard from %d: block %d starts at wearer %d, off the %d-grid", first, i, e.firstWearer, blockSize)
			}
		}
	}
}

// TestMergeShardsRejects pins the merge's refusal set: gaps, overlaps,
// truncated shards and mismatched sweep identities must all fail rather
// than silently produce a plausible store.
func TestMergeShardsRejects(t *testing.T) {
	const n, blockSize = 24, 8
	s0 := writeShard(t, t.TempDir(), n, blockSize, 0, 12)
	s1 := writeShard(t, t.TempDir(), n, blockSize, 12, n)

	t.Run("gap", func(t *testing.T) {
		late := writeShard(t, t.TempDir(), n, blockSize, 13, n)
		mustFailMerge(t, []string{s0, late}, "expected to start at")
	})
	t.Run("overlap", func(t *testing.T) {
		early := writeShard(t, t.TempDir(), n, blockSize, 11, n)
		mustFailMerge(t, []string{s0, early}, "expected to start at")
	})
	t.Run("missing-head", func(t *testing.T) {
		mustFailMerge(t, []string{s1}, "not 0")
	})
	t.Run("missing-tail", func(t *testing.T) {
		mustFailMerge(t, []string{s0}, "population")
	})
	t.Run("incomplete-shard", func(t *testing.T) {
		// A shard whose meta claims [12, 24) but only holds [12, 18):
		// exactly what a torn replica looks like after scan-truncation.
		dir := t.TempDir()
		meta := testMeta(n, blockSize)
		meta.FirstWearer = 12
		path := filepath.Join(dir, "short.wtl")
		w, err := Create(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 12; i < 18; i++ {
			if err := w.Consume(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		mustFailMerge(t, []string{s0, path}, "incomplete")
	})
	t.Run("foreign-sweep", func(t *testing.T) {
		dir := t.TempDir()
		meta := testMeta(n, blockSize)
		meta.FleetSeed++
		meta.FirstWearer = 12
		path := filepath.Join(dir, "foreign.wtl")
		w, err := Create(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 12; i < n; i++ {
			if err := w.Consume(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		mustFailMerge(t, []string{s0, path}, "does not match")
	})
	t.Run("zero-shards", func(t *testing.T) {
		mustFailMerge(t, nil, "zero shards")
	})
	t.Run("corrupt-shard", func(t *testing.T) {
		// Damage inside a shard's checkpointed prefix surfaces as a copy
		// error mid-merge — after the merged writer already committed
		// blocks — and must still clean up dst.
		dir := t.TempDir()
		bad := filepath.Join(dir, "bad.wtl")
		raw, err := os.ReadFile(s1)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := os.ReadFile(CheckpointPath(s1))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CheckpointPath(bad), ck, 0o644); err != nil {
			t.Fatal(err)
		}
		mustFailMerge(t, []string{s0, bad}, "merge shard 1")
	})
}

// mustFailMerge asserts the merge fails with want in its error — and,
// the leak regression: that the failure left neither a partial merged
// store nor its checkpoint sidecar behind. A leftover dst is derived
// data masquerading as real state; recovery must never find one.
func mustFailMerge(t *testing.T, paths []string, want string) {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "merged.wtl")
	_, _, err := MergeShards(dst, paths, nil)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("merge error %v, want %q", err, want)
	}
	if _, serr := os.Stat(dst); !os.IsNotExist(serr) {
		t.Errorf("failed merge left a partial store behind (stat err = %v)", serr)
	}
	if _, serr := os.Stat(CheckpointPath(dst)); !os.IsNotExist(serr) {
		t.Errorf("failed merge left a checkpoint sidecar behind (stat err = %v)", serr)
	}
}

// TestCommitted pins the replication feed's summary: the reported
// offset bounds the committed prefix (never including the trailing
// index, which lies past the final checkpoint), next names the wearer
// after the last committed one, and a store without a trustworthy
// checkpoint is an error, not a guess.
func TestCommitted(t *testing.T) {
	const n, blockSize = 20, 8
	path := writeStore(t, n, blockSize)
	meta, off, next, err := Committed(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta != testMeta(n, blockSize) {
		t.Errorf("meta %+v", meta)
	}
	if next != n {
		t.Errorf("next wearer %d, want %d", next, n)
	}
	st, _ := os.Stat(path)
	if off <= 0 || off >= st.Size() {
		t.Errorf("committed offset %d outside (0, %d): the trailing index must lie past it", off, st.Size())
	}

	// The committed prefix alone must scan-open as a complete store: this
	// is the exact byte range a coordinator replicates.
	trunc := filepath.Join(t.TempDir(), "prefix.wtl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trunc, raw[:off], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(trunc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if recs := drain(t, r); len(recs) != n {
		t.Errorf("committed prefix replays %d records, want %d", len(recs), n)
	}

	if err := os.Remove(CheckpointPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Committed(path); err == nil {
		t.Error("Committed without a checkpoint sidecar succeeded, want error")
	}

	if _, _, _, err := Committed(filepath.Join(t.TempDir(), "absent.wtl")); err == nil {
		t.Error("Committed on a missing store succeeded, want error")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.wtl")
	if err := os.WriteFile(garbage, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Committed(garbage); err == nil {
		t.Error("Committed on a non-store file succeeded, want error")
	}
	// A store shorter than its checkpoint claims is inconsistent, not
	// replicable: the sidecar no longer describes the file.
	torn := writeStore(t, n, blockSize)
	_, tornOff, _, err := Committed(torn)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(torn, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(tornOff - 1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, _, err := Committed(torn); err == nil {
		t.Error("Committed on a store shorter than its checkpoint succeeded, want error")
	}
}

// TestValidPrefix pins the replication check: over the committed prefix
// the walk ends exactly at a frame boundary — the far end when every
// byte is intact, the start of the first damaged or cut frame otherwise
// — and a walk that starts at 0 vouches for the header too.
func TestValidPrefix(t *testing.T) {
	const n, blockSize = 20, 4
	path := filepath.Join(t.TempDir(), "run.wtl")
	w, err := Create(path, testMeta(n, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{w.Offset()} // header end, then every committed block end
	w.OnCommit = func(_, _ int, bytes int64) { bounds = append(bounds, bytes) }
	for i := 0; i < n; i++ {
		if err := w.Consume(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	committed := bounds[len(bounds)-1]
	walk := func(data []byte, from, to int64) int64 {
		t.Helper()
		p := filepath.Join(t.TempDir(), "copy.wtl")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return ValidPrefix(f, from, to)
	}

	if got := walk(raw, 0, committed); got != committed {
		t.Errorf("clean walk ends at %d, want %d", got, committed)
	}
	if got := walk(raw, bounds[2], committed); got != committed {
		t.Errorf("walk from block 2 ends at %d, want %d", got, committed)
	}
	if got := walk(raw[:bounds[3]+5], 0, bounds[3]+5); got != bounds[3] {
		t.Errorf("walk over a cut frame ends at %d, want %d", got, bounds[3])
	}
	garbled := slices.Clone(raw)
	garbled[bounds[2]+12] ^= 0x40
	if got := walk(garbled, 0, committed); got != bounds[2] {
		t.Errorf("walk over a garbled frame ends at %d, want %d", got, bounds[2])
	}
	garbled = slices.Clone(raw)
	garbled[bounds[0]-2] ^= 0x01
	if got := walk(garbled, 0, committed); got != 0 {
		t.Errorf("walk over a garbled header ends at %d, want 0", got)
	}
	if got := walk(raw[:bounds[0]-1], 0, bounds[0]-1); got != 0 {
		t.Errorf("walk over a cut header ends at %d, want 0", got)
	}
}

// TestAdoptVersion pins the resume version rule Resume applies: keep the
// store's own format while it can represent the sweep, step up to the
// current one — surfacing a meta mismatch — when it cannot.
func TestAdoptVersion(t *testing.T) {
	for _, c := range []struct {
		store, cells     int
		feedback, series bool
		want             int
	}{
		{FormatV0, 0, false, false, FormatV0},      // uncoupled store stays v0
		{FormatV1, 0, false, false, FormatV1},      // uncoupled store stays v1
		{FormatV1, 4, false, false, FormatV1},      // coupled store stays v1
		{FormatV2, 4, true, false, FormatV2},       // feedback store stays v2
		{FormatV3, 0, false, true, FormatV3},       // series store stays v3
		{FormatV3, 4, true, true, FormatV3},        // feedback series store stays v3
		{FormatV0, 4, false, false, CurrentFormat}, // coupled sweep outgrew v0
		{FormatV1, 4, true, false, CurrentFormat},  // feedback sweep outgrew v1
		{FormatV2, 0, false, true, CurrentFormat},  // series sweep outgrew v2
		{FormatV2, 4, true, true, CurrentFormat},   // feedback series sweep outgrew v2
	} {
		if got := adoptVersion(c.store, c.cells, c.feedback, c.series); got != c.want {
			t.Errorf("adoptVersion(v%d, cells=%d, feedback=%v, series=%v) = v%d, want v%d",
				c.store, c.cells, c.feedback, c.series, got, c.want)
		}
	}
}

// TestWriterOffset: the writer's committed offset tracks exactly the
// bytes a kill preserves — Committed reports the same number after Close.
func TestWriterOffset(t *testing.T) {
	const n, blockSize = 16, 4
	path := filepath.Join(t.TempDir(), "run.wtl")
	w, err := Create(path, testMeta(n, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	if w.Offset() <= 0 {
		t.Errorf("fresh writer offset %d, want > 0 (header is committed)", w.Offset())
	}
	header := w.Offset()
	for i := 0; i < n; i++ {
		if err := w.Consume(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Offset() <= header {
		t.Errorf("closed writer offset %d did not grow past the header %d", w.Offset(), header)
	}
	_, off, _, err := Committed(path)
	if err != nil {
		t.Fatal(err)
	}
	if off != w.Offset() {
		t.Errorf("Committed offset %d != writer offset %d", off, w.Offset())
	}
}
