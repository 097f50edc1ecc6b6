package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// seriesMeta is testMeta lifted to a series-enabled v3 store.
func seriesMeta(wearers, blockSize int) Meta {
	m := testMeta(wearers, blockSize)
	m.Version = FormatV3
	m.SeriesCadenceSeconds = 0.5
	return m
}

// seriesRecord extends testRecord(w) with a deterministic per-node time
// series on a 500 ms grid: decaying charge, cycling queue depths, and
// NaN rate pairs (the encoder's marker for windows with no transmission
// attempts) sprinkled on every fifth sample. Wearers with no nodes
// (w%4 == 0) carry no samples — the empty-series edge rides along free.
func seriesRecord(w int) Record {
	rec := testRecord(w)
	for ms := int64(500); ms <= 3000; ms += 500 {
		for n := range rec.Nodes {
			p := SeriesPoint{
				Node:       n,
				TimeMS:     ms,
				Charge:     1 - float64(ms)/100000 - float64(w%7)*0.01,
				QueueDepth: (w + int(ms/500) + n) % 9,
			}
			if (w+n+int(ms/500))%5 == 0 {
				p.LinkPER, p.CollisionRate = math.NaN(), math.NaN()
			} else {
				p.LinkPER = float64((w+n)%10) / 20
				p.CollisionRate = p.LinkPER / 2
			}
			rec.Series = append(rec.Series, p)
		}
	}
	return rec
}

// writeSeriesStore writes seriesRecord(0..n) and returns the store path.
func writeSeriesStore(t *testing.T, n, blockSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "series.wtl")
	w, err := Create(path, seriesMeta(n, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Consume(seriesRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// samePoints compares series NaN-aware (reflect.DeepEqual treats NaN as
// unequal to itself, which would reject the gap markers round-tripping).
func samePoints(a, b []SeriesPoint) bool {
	if len(a) != len(b) {
		return false
	}
	feq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].TimeMS != b[i].TimeMS ||
			a[i].QueueDepth != b[i].QueueDepth ||
			!feq(a[i].Charge, b[i].Charge) ||
			!feq(a[i].LinkPER, b[i].LinkPER) ||
			!feq(a[i].CollisionRate, b[i].CollisionRate) {
			return false
		}
	}
	return true
}

// TestSeriesStoreRoundTrip writes a series store across several block
// boundaries and reads every sample back bit-identically.
func TestSeriesStoreRoundTrip(t *testing.T) {
	const n, blockSize = 37, 8
	path := writeSeriesStore(t, n, blockSize)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := drain(t, r)
	if len(recs) != n {
		t.Fatalf("read %d records, wrote %d", len(recs), n)
	}
	wantPoints := int64(0)
	for i := range recs {
		want := seriesRecord(i)
		wantPoints += int64(len(want.Series))
		if !samePoints(recs[i].Series, want.Series) {
			t.Fatalf("record %d series: got %+v want %+v", i, recs[i].Series, want.Series)
		}
		recs[i].Series, want.Series = nil, nil
		if len(want.Nodes) == 0 {
			want.Nodes = nil
		}
		if len(recs[i].Nodes) == 0 {
			recs[i].Nodes = nil
		}
		if !reflect.DeepEqual(recs[i], want) {
			t.Fatalf("record %d: got %+v want %+v", i, recs[i], want)
		}
	}
	if r.SeriesPoints() != wantPoints {
		t.Errorf("SeriesPoints() = %d, want %d", r.SeriesPoints(), wantPoints)
	}
	if r.Truncated() || !r.Checkpointed() {
		t.Errorf("trunc=%v ck=%v", r.Truncated(), r.Checkpointed())
	}
	// A records-only walk builds no samples but must total the same and
	// collect the same index entries.
	rc, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.EachRecord(func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if rc.Blocks() != r.Blocks() || rc.Records() != r.Records() || rc.SeriesPoints() != r.SeriesPoints() ||
		rc.RawBytes() != r.RawBytes() || rc.pos != r.pos || !slices.Equal(rc.entries, r.entries) {
		t.Errorf("EachRecord totals %d blocks, %d records, %d points, %d raw bytes, ends at %d; Each %d, %d, %d, %d, %d",
			rc.Blocks(), rc.Records(), rc.SeriesPoints(), rc.RawBytes(), rc.pos,
			r.Blocks(), r.Records(), r.SeriesPoints(), r.RawBytes(), r.pos)
	}
	// The whole file — record frames, series frames and the trailing
	// index — must also pass a strict audit.
	rs, err := OpenStrict(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if got := drain(t, rs); len(got) != n {
		t.Fatalf("strict drain read %d records", len(got))
	}
}

// TestSeriesOffStoreByteGolden pins a small store of every format to the
// exact bytes its writer produced before the column codecs were shared.
// The v2 row was recorded before any v3 code existed: the v3 frame kinds
// and trailing index must cost series-off stores nothing, and any byte of
// drift there breaks resume compatibility with every store in the wild.
// The v0, v1 and v3-series rows pin the older record layouts and the
// series and index frames, which the kill/resume and merge tests only
// compare against themselves.
func TestSeriesOffStoreByteGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		meta   Meta
		record func(int) Record
		len    int
		sha    string
	}{
		{"v0", Meta{FleetSeed: 42, Wearers: 24, SpanSeconds: 30, BlockSize: 8}, legacyRecord, 947,
			"2a01d273d3829c7aafb38b2c8fe961f459535675ab151f113fcb1916a592afc2"},
		{"v1", Meta{FleetSeed: 42, Wearers: 24, SpanSeconds: 30, BlockSize: 8,
			Version: FormatV1, Cells: 5}, v1Record, 1047,
			"b6661dd0e56634224d569f8e41adf9ffb71def2362eabaddb0c2ba8030b6ecbd"},
		{"v2", Meta{FleetSeed: 42, Wearers: 24, SpanSeconds: 30, BlockSize: 8,
			Version: FormatV2, Cells: 5, Feedback: true}, testRecord, 1141,
			"841eda97926dfd09b6486a6db155c776de7fc11b8cc1e278b274546e3edddaa5"},
		{"v3-series", Meta{FleetSeed: 42, Wearers: 24, SpanSeconds: 30, BlockSize: 8,
			Version: FormatV3, Cells: 5, Feedback: true, SeriesCadenceSeconds: 0.5}, seriesRecord, 5349,
			"b24c2e2fb87825c358df32e86aac98255f08e5de9cfbd559f76bd345978e45ff"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "golden.wtl")
			w, err := Create(path, tc.meta)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := w.Consume(tc.record(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if len(data) != tc.len || hex.EncodeToString(sum[:]) != tc.sha {
				t.Fatalf("%s store drifted: %d bytes, sha256 %s (want %d, %s)",
					tc.name, len(data), hex.EncodeToString(sum[:]), tc.len, tc.sha)
			}
		})
	}
}

// TestWriterRefusesSeriesIntoSeriesOffStore: samples fed to a store with
// no series frames must be refused, not silently dropped.
func TestWriterRefusesSeriesIntoSeriesOffStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "off.wtl")
	w, err := Create(path, testMeta(24, 8)) // v3, but cadence 0 ⇒ series off
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	rec := seriesRecord(1) // 1 node ⇒ non-empty series
	rec.Wearer = 0
	if err := w.Consume(rec); err == nil || !strings.Contains(err.Error(), "series") {
		t.Fatalf("series into a series-off store: err = %v", err)
	}
}

// TestSeriesKillResumeByteIdentical kills a series sweep mid-flight,
// resumes it through both recovery paths (trusted sidecar and CRC scan),
// and demands the finished store match an uninterrupted one byte for
// byte — including the trailing index frame, which the resumed writer
// must regenerate rather than inherit.
func TestSeriesKillResumeByteIdentical(t *testing.T) {
	const n, blockSize = 37, 8
	want, err := os.ReadFile(writeSeriesStore(t, n, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, scan := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "killed.wtl")
		w, err := Create(path, seriesMeta(n, blockSize))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 19; i++ { // 2 committed blocks + 3 buffered records lost
			if err := w.Consume(seriesRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Abort(); err != nil {
			t.Fatal(err)
		}
		if scan {
			if err := os.Remove(CheckpointPath(path)); err != nil {
				t.Fatal(err)
			}
		}
		rw, err := resumeStore(t, path, seriesMeta(n, blockSize))
		if err != nil {
			t.Fatal(err)
		}
		if rw.NextWearer() != 16 {
			t.Fatalf("scan=%t: resumed at wearer %d, want 16", scan, rw.NextWearer())
		}
		for i := rw.NextWearer(); i < n; i++ {
			if err := rw.Consume(seriesRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("scan=%t: resumed store differs from uninterrupted one (%d vs %d bytes)",
				scan, len(got), len(want))
		}
	}
}

// TestSeriesScanResumeDiscardsTornPair: a record block whose paired
// series frame is torn must be discarded whole by the scan fallback —
// trusting the record half would leave a committed block without its
// samples.
func TestSeriesScanResumeDiscardsTornPair(t *testing.T) {
	const n, blockSize = 16, 8 // exactly two committed blocks
	path := writeSeriesStore(t, n, blockSize)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, ok := r.loadIndex()
	r.Close()
	if !ok || len(entries) != 2 {
		t.Fatalf("index load failed (ok=%t, %d entries)", ok, len(entries))
	}
	// Tear the second block's series frame a few bytes in; its record
	// frame stays fully intact on disk.
	if err := os.Truncate(path, entries[1].serOffset+5); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(CheckpointPath(path)); err != nil {
		t.Fatal(err)
	}
	w, err := resumeStore(t, path, seriesMeta(n, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if w.NextWearer() != blockSize || w.Blocks() != 1 {
		t.Fatalf("torn pair: resumed at wearer %d with %d blocks, want %d/1",
			w.NextWearer(), w.Blocks(), blockSize)
	}
}

// TestStrictVerifyCrossChecksIndex forges a trailing index frame whose
// entries disagree with the blocks on disk. The checkpoint-trusting
// reader never reads past the final checkpoint, so it stays blind; the
// strict audit must flag the divergence.
func TestStrictVerifyCrossChecksIndex(t *testing.T) {
	path := writeSeriesStore(t, 16, 8)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, ok := r.loadIndex()
	r.Close()
	if !ok {
		t.Fatal("index load failed")
	}
	entries[1].points++ // lie about the second block
	if err := os.Truncate(path, r.ck.Offset); err != nil {
		t.Fatal(err)
	}
	fw, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(encodeIndexFrame(entries)); err != nil {
		t.Fatal(err)
	}
	fw.Close()

	r, err = Open(path) // checkpoint-bounded read stops before the index
	if err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	r.Close()

	rs, err := OpenStrict(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var derr error
	for derr == nil {
		_, derr = rs.Next()
	}
	if !strings.Contains(derr.Error(), "does not match") {
		t.Fatalf("strict audit of a forged index: err = %v", derr)
	}
}

// TestHeaderOnlyStore pins the whole toolchain's view of a store with a
// header but zero committed blocks — what iobfleet -out leaves behind
// when killed before the first commit. Both readers must report a clean,
// complete-in-zero-records store: no truncation, no phantom index, and
// Resume must land on wearer 0.
func TestHeaderOnlyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.wtl")
	w, err := Create(path, seriesMeta(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // zero blocks ⇒ no index frame either
		t.Fatal(err)
	}
	for _, open := range []struct {
		name string
		fn   func(string) (*Reader, error)
	}{{"open", Open}, {"strict", OpenStrict}} {
		r, err := open.fn(path)
		if err != nil {
			t.Fatalf("%s: %v", open.name, err)
		}
		recs := drain(t, r)
		if len(recs) != 0 || r.Blocks() != 0 || r.Records() != 0 {
			t.Errorf("%s: drained %d records, %d blocks", open.name, len(recs), r.Blocks())
		}
		if r.Truncated() {
			t.Errorf("%s: header-only store reported truncated", open.name)
		}
		if r.RawBytes() != 0 || r.SeriesPoints() != 0 {
			t.Errorf("%s: raw=%d series=%d on an empty store", open.name, r.RawBytes(), r.SeriesPoints())
		}
		r.Close()
	}
	rw, err := resumeStore(t, path, seriesMeta(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Abort()
	if rw.NextWearer() != 0 || rw.Blocks() != 0 {
		t.Fatalf("resume of header-only store: wearer %d, %d blocks", rw.NextWearer(), rw.Blocks())
	}
}

// TestCreateRemovesStaleSidecar is the regression pin for the
// stale-checkpoint bug: Create(path) over an existing store left the old
// sidecar in place until its own first checkpoint rename, so a failure
// in that window — or a kill — stranded a sidecar describing the
// overwritten file. A later Resume with the same fleet seed would trust
// it (the seed check still verifies) and truncate the fresh store at a
// stale offset. Create must now remove the sidecar before the store
// gains any content.
func TestCreateRemovesStaleSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.wtl")
	w, err := Create(path, seriesMeta(37, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Consume(seriesRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(CheckpointPath(path)); err != nil {
		t.Fatalf("no sidecar after a committed sweep: %v", err)
	}

	// Overwrite the store, with the new writer's own checkpoint write
	// sabotaged: a directory squatting on the sidecar's temp path makes
	// the rename-into-place fail, exactly the window the bug lived in.
	if err := os.Mkdir(CheckpointPath(path)+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path, seriesMeta(37, 8)); err == nil {
		t.Fatal("create with a sabotaged checkpoint path succeeded")
	}
	if _, err := os.Stat(CheckpointPath(path)); !os.IsNotExist(err) {
		t.Fatalf("stale sidecar survived the failed overwrite (stat err = %v)", err)
	}

	// With the saboteur removed, the same overwrite completes and resumes
	// at the new store's own state, not the old run's wearer 16.
	if err := os.RemoveAll(CheckpointPath(path) + ".tmp"); err != nil {
		t.Fatal(err)
	}
	w2, err := Create(path, seriesMeta(37, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := w2.Consume(seriesRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Abort(); err != nil {
		t.Fatal(err)
	}
	rw, err := resumeStore(t, path, seriesMeta(37, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Abort()
	if rw.NextWearer() != 8 {
		t.Fatalf("resume after overwrite landed at wearer %d, want 8", rw.NextWearer())
	}
}
