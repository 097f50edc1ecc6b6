package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wiban/internal/desim"
)

// testRecord builds a deterministic, mildly adversarial record for wearer
// w: varying node counts (including zero), negative-delta traffic
// columns, repeated and NaN-free float columns.
func testRecord(w int) Record {
	rec := Record{
		Wearer:           w,
		Events:           uint64(1000 + 7*w),
		HubRxBits:        int64(1e6) - int64(w)*13,
		HubUtilization:   0.25 + float64(w%4)*0.125,
		Cell:             w % 5,
		ForeignLoadPPM:   int64(40_000 * (w % 3)),
		EqForeignLoadPPM: int64(40_000*(w%3)) + int64(9_000*(w%4)),
		FeedbackIters:    w % 6,
	}
	for j := 0; j < w%4; j++ {
		rec.Nodes = append(rec.Nodes, NodeRecord{
			PacketsGenerated: int64(100 - w%50),
			PacketsDelivered: int64(90 - w%50),
			PacketsDropped:   int64(w % 7),
			Transmissions:    int64(110 + j),
			BitsDelivered:    int64(8000 * (j + 1)),
			ProjectedLife:    3600 * float64(1+w%5),
			LatencyP50:       0.010 + float64(j)*0.001,
			LatencyP99:       0.040,
			Perpetual:        (w+j)%3 == 0,
			Died:             (w+j)%11 == 0,
		})
	}
	return rec
}

func testMeta(wearers, blockSize int) Meta {
	return Meta{FleetSeed: 42, Wearers: wearers, SpanSeconds: 30, Scenario: "test-gen v1",
		BlockSize: blockSize, Version: CurrentFormat, Cells: 5, Feedback: true}
}

// writeStore writes records [0, n) and returns the store path.
func writeStore(t *testing.T, n, blockSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.wtl")
	w, err := Create(path, testMeta(n, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Consume(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// drain reads every record, asserting wearer order.
func drain(t *testing.T, r *Reader) []Record {
	t.Helper()
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Wearer != len(recs) {
			t.Fatalf("wearer %d at position %d", rec.Wearer, len(recs))
		}
		recs = append(recs, rec)
	}
}

// resumeStore resumes the store at path as want's sweep through a
// counting sink; a successful Resume must have fed it exactly the
// wearers [FirstWearer, NextWearer), in wearer order.
func resumeStore(tb testing.TB, path string, want Meta) (*Writer, error) {
	tb.Helper()
	first, _ := want.Range()
	fed := 0
	w, err := Resume(path, want, func(rec Record) error {
		if rec.Wearer != first+fed {
			return fmt.Errorf("sink got wearer %d, want %d", rec.Wearer, first+fed)
		}
		fed++
		return nil
	})
	if err == nil && first+fed != w.NextWearer() {
		w.Abort()
		tb.Fatalf("Resume fed %d records from wearer %d, resumes at %d", fed, first, w.NextWearer())
	}
	return w, err
}

// TestStoreRoundTrip writes across several block boundaries plus a short
// final block and reads everything back bit-identically.
func TestStoreRoundTrip(t *testing.T) {
	const n, blockSize = 37, 8 // 4 full blocks + 5-record tail
	path := writeStore(t, n, blockSize)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Meta(); got != testMeta(n, blockSize) {
		t.Fatalf("meta round trip: %+v", got)
	}
	recs := drain(t, r)
	if len(recs) != n {
		t.Fatalf("read %d records, wrote %d", len(recs), n)
	}
	for i := range recs {
		want := testRecord(i)
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
	if r.Blocks() != 5 || r.Records() != n || !r.Checkpointed() || r.Truncated() {
		t.Errorf("blocks=%d records=%d ck=%v trunc=%v", r.Blocks(), r.Records(), r.Checkpointed(), r.Truncated())
	}
}

// TestResumeAfterKill aborts mid-run at a block boundary and mid-block,
// then checks Resume lands exactly on the committed prefix.
func TestResumeAfterKill(t *testing.T) {
	for _, kill := range []struct {
		name          string
		written, want int
	}{
		{"at block boundary", 16, 16},
		{"mid-block", 21, 16}, // 5 buffered records lost
		{"before first block", 3, 0},
	} {
		t.Run(kill.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.wtl")
			w, err := Create(path, testMeta(100, 8))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < kill.written; i++ {
				if err := w.Consume(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			w2, err := resumeStore(t, path, testMeta(100, 8))
			if err != nil {
				t.Fatal(err)
			}
			if w2.NextWearer() != kill.want {
				t.Fatalf("NextWearer = %d, want %d", w2.NextWearer(), kill.want)
			}
			// Finish the run from the resume point and verify the store.
			for i := kill.want; i < 100; i++ {
				if err := w2.Consume(testRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if recs := drain(t, r); len(recs) != 100 {
				t.Fatalf("resumed store holds %d records, want 100", len(recs))
			}
		})
	}
}

// TestResumeWithoutCheckpoint deletes the sidecar and appends garbage;
// the scan fallback must trust exactly the CRC-verified prefix.
func TestResumeWithoutCheckpoint(t *testing.T) {
	path := writeStore(t, 32, 8)
	if err := os.Remove(CheckpointPath(path)); err != nil {
		t.Fatal(err)
	}
	if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0); err != nil {
		t.Fatal(err)
	} else {
		f.Write([]byte("WBLK\xff\xff garbage tail not a real frame"))
		f.Close()
	}
	w, err := resumeStore(t, path, testMeta(32, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if w.NextWearer() != 32 || w.Blocks() != 4 {
		t.Fatalf("scan fallback: next=%d blocks=%d, want 32/4", w.NextWearer(), w.Blocks())
	}
	// The garbage tail must be gone: reopening for read sees a clean
	// checkpointed store.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if recs := drain(t, r); len(recs) != 32 || r.Truncated() {
		t.Fatalf("after scan-resume: %d records, truncated=%v", len(recs), r.Truncated())
	}
}

// TestCheckpointSeedCheck tampers the sidecar's NextWearer; the seed
// check must reject it and fall back to the (correct) scan.
func TestCheckpointSeedCheck(t *testing.T) {
	path := writeStore(t, 24, 8)
	ck, err := os.ReadFile(CheckpointPath(path))
	if err != nil {
		t.Fatal(err)
	}
	// Bump next_wearer without recomputing seed_check.
	if !strings.Contains(string(ck), `"next_wearer":24`) {
		t.Fatalf("unexpected checkpoint %s", ck)
	}
	tampered := []byte(strings.Replace(string(ck), `"next_wearer":24`, `"next_wearer":16`, 1))
	if err := os.WriteFile(CheckpointPath(path), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(path, testMeta(24, 8)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered checkpoint accepted: %v", err)
	}
	w, err := resumeStore(t, path, testMeta(24, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if w.NextWearer() != 24 {
		t.Fatalf("resume after tamper: next=%d, want 24 via scan", w.NextWearer())
	}
}

// TestCheckpointRejectionTable drives readCheckpoint through the
// corruption matrix: every implausible or mistied sidecar must be
// rejected with ErrCorrupt — the seed check catching any next_wearer
// that was not stamped by this run — and Resume must then fall back to
// the CRC scan and recover the full committed prefix.
func TestCheckpointRejectionTable(t *testing.T) {
	const n, blockSize = 24, 8
	path := writeStore(t, n, blockSize)
	meta := testMeta(n, blockSize)
	good, err := os.ReadFile(CheckpointPath(path))
	if err != nil {
		t.Fatal(err)
	}
	// ckJSON renders a sidecar with a *valid* self-CRC, so each row
	// exercises the specific plausibility guard it names rather than
	// tripping the CRC first.
	ckJSON := func(offset int64, blocks, next int, seedCheck int64) string {
		ck := checkpoint{Offset: offset, Blocks: blocks, NextWearer: next, SeedCheck: seedCheck}
		ck.CRC = ck.sum()
		blob, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	badCRC := checkpoint{Offset: 200, Blocks: 2, NextWearer: 16,
		SeedCheck: desim.DeriveSeed(meta.FleetSeed, 32)}
	badCRC.CRC = badCRC.sum() + 1
	badCRCBlob, err := json.Marshal(badCRC)
	if err != nil {
		t.Fatal(err)
	}
	seed := func(next int) int64 { return desim.DeriveSeed(meta.FleetSeed, 2*uint64(next)) }
	for name, sidecar := range map[string]string{
		"empty":                    "",
		"not JSON":                 "WBTL nonsense",
		"truncated JSON":           string(good[:len(good)/2]),
		"missing CRC":              fmt.Sprintf(`{"offset":200,"blocks":2,"next_wearer":16,"seed_check":%d}`, seed(16)),
		"flipped CRC":              string(badCRCBlob),
		"seed check mismatch":      ckJSON(200, 2, 16, seed(16)+1),
		"seed from another fleet":  ckJSON(200, 2, 16, desim.DeriveSeed(meta.FleetSeed+1, 32)),
		"next_wearer re-stamped":   ckJSON(200, 2, 8, seed(16)),
		"next_wearer negative":     ckJSON(200, 2, -1, seed(0)),
		"next_wearer past sweep":   ckJSON(200, 4, n+8, seed(n+8)),
		"negative offset":          ckJSON(-3, 2, 16, seed(16)),
		"negative blocks":          ckJSON(200, -1, 0, seed(0)),
		"more blocks than records": ckJSON(200, 9, 8, seed(8)),
		"more records than fit":    ckJSON(200, 1, 16, seed(16)),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(CheckpointPath(path), []byte(sidecar), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := readCheckpoint(path, meta); err == nil {
				t.Fatalf("sidecar %q accepted", sidecar)
			} else if len(sidecar) > 0 && sidecar[0] == '{' && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parsed-but-invalid sidecar: error %v, want ErrCorrupt", err)
			}
			// The fallback scan recovers everything the file holds.
			w, err := resumeStore(t, path, meta)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Abort()
			if w.NextWearer() != n {
				t.Fatalf("scan fallback landed at %d, want %d", w.NextWearer(), n)
			}
		})
	}
}

// TestCheckpointOffsetBlockMismatch covers the consistency guard that
// lives above readCheckpoint (it needs the header length): a sidecar
// claiming committed blocks at the header offset — or an empty prefix
// past it — is ignored by both the reader and the resume path.
func TestCheckpointOffsetBlockMismatch(t *testing.T) {
	const n, blockSize = 24, 8
	path := writeStore(t, n, blockSize)
	meta := testMeta(n, blockSize)
	hdr, err := encodeHeader(meta)
	if err != nil {
		t.Fatal(err)
	}
	for name, ck := range map[string]checkpoint{
		"blocks at header offset": {Offset: int64(len(hdr)), Blocks: 2, NextWearer: 16,
			SeedCheck: desim.DeriveSeed(meta.FleetSeed, 32)},
		"empty prefix past header": {Offset: int64(len(hdr)) + 3, Blocks: 0, NextWearer: 0,
			SeedCheck: desim.DeriveSeed(meta.FleetSeed, 0)},
	} {
		t.Run(name, func(t *testing.T) {
			ck.CRC = ck.sum() // a valid self-CRC, so only the offset guard can reject
			blob, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(CheckpointPath(path), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			recs := drain(t, r)
			if r.Checkpointed() {
				t.Error("reader trusted an offset/blocks-inconsistent sidecar")
			}
			r.Close()
			if len(recs) != n {
				t.Fatalf("scan read %d records, want %d", len(recs), n)
			}
			w, err := resumeStore(t, path, meta)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Abort()
			if w.NextWearer() != n {
				t.Fatalf("resume landed at %d, want %d via scan", w.NextWearer(), n)
			}
		})
	}
}

// TestWriterRejectsDisorder covers the ordering and population guards.
func TestWriterRejectsDisorder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wtl")
	w, err := Create(path, testMeta(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Consume(testRecord(1)); err == nil {
		t.Error("out-of-order first record accepted")
	}
	for i := 0; i < 4; i++ {
		if err := w.Consume(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Consume(testRecord(4)); err == nil {
		t.Error("record past population accepted")
	}
}

// TestReaderRejectsCorruptPrefix flips one payload byte inside the
// checkpointed prefix: Next must surface ErrCorrupt, not truncate.
func TestReaderRejectsCorruptPrefix(t *testing.T) {
	path := writeStore(t, 16, 8)
	// Flip a byte 20 bytes before the checkpointed offset — inside the
	// last committed record block, not the trailing index frame (which
	// sits past the checkpoint and outside the trusted prefix).
	pre, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	trusted := pre.limit
	pre.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[trusted-20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var lastErr error
	for {
		_, err := r.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrCorrupt) {
		t.Fatalf("corrupt checkpointed block: %v, want ErrCorrupt", lastErr)
	}
}

// TestCreateValidatesMeta covers header-level validation.
func TestCreateValidatesMeta(t *testing.T) {
	dir := t.TempDir()
	for name, meta := range map[string]Meta{
		"no wearers": {Wearers: 0, SpanSeconds: 1},
		"no span":    {Wearers: 1, SpanSeconds: 0},
		"neg block":  {Wearers: 1, SpanSeconds: 1, BlockSize: -1},
	} {
		if _, err := Create(filepath.Join(dir, name), meta); err == nil {
			t.Errorf("%s: Create accepted %+v", name, meta)
		}
	}
}

// legacyRecord strips the v1- and v2-only fields from a test record, the
// shape a FormatV0 store can carry.
func legacyRecord(w int) Record {
	rec := testRecord(w)
	rec.Cell = -1
	rec.ForeignLoadPPM = 0
	rec.EqForeignLoadPPM = 0
	rec.FeedbackIters = 0
	return rec
}

// TestLegacyV0RoundTrip pins backwards compatibility: a store written in
// the pre-versioning column layout (no version field in the meta) must
// read back with the uncoupled sentinel cell −1 on every record.
func TestLegacyV0RoundTrip(t *testing.T) {
	const n, blockSize = 19, 8
	meta := Meta{FleetSeed: 42, Wearers: n, SpanSeconds: 30, BlockSize: blockSize}
	path := filepath.Join(t.TempDir(), "v0.wtl")
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Consume(legacyRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Meta().Version; got != FormatV0 {
		t.Fatalf("legacy store decoded as version %d", got)
	}
	recs := drain(t, r)
	if len(recs) != n {
		t.Fatalf("read %d records, wrote %d", len(recs), n)
	}
	for i := range recs {
		if recs[i].Cell != -1 || recs[i].ForeignLoadPPM != 0 {
			t.Fatalf("record %d: v0 store produced cell %d load %d",
				i, recs[i].Cell, recs[i].ForeignLoadPPM)
		}
	}
}

// v1Record strips the v2-only fields from a test record, the shape a
// FormatV1 store can carry.
func v1Record(w int) Record {
	rec := testRecord(w)
	rec.EqForeignLoadPPM = 0
	rec.FeedbackIters = 0
	return rec
}

// TestLegacyV1RoundTrip pins pre-feedback compatibility: a coupled v1
// store (what PR 3 binaries wrote) must read back exactly, with zero
// equilibrium fields on every record.
func TestLegacyV1RoundTrip(t *testing.T) {
	const n, blockSize = 19, 8
	meta := Meta{FleetSeed: 42, Wearers: n, SpanSeconds: 30, BlockSize: blockSize,
		Version: FormatV1, Cells: 5}
	path := filepath.Join(t.TempDir(), "v1.wtl")
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Consume(v1Record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Meta(); got.Version != FormatV1 || got.Feedback {
		t.Fatalf("v1 store decoded as %+v", got)
	}
	recs := drain(t, r)
	if len(recs) != n {
		t.Fatalf("read %d records, wrote %d", len(recs), n)
	}
	for i := range recs {
		want := v1Record(i)
		if recs[i].Cell != want.Cell || recs[i].ForeignLoadPPM != want.ForeignLoadPPM {
			t.Fatalf("record %d: v1 columns did not round-trip: %+v", i, recs[i])
		}
		if recs[i].EqForeignLoadPPM != 0 || recs[i].FeedbackIters != 0 {
			t.Fatalf("record %d: v1 store produced equilibrium data %+v", i, recs[i])
		}
	}
}

// TestFormatVersionGuards covers the version/cells validation matrix:
// coupled sweeps need v1, feedback sweeps v2, unknown versions are
// refused at create and open, and older-format writers refuse records
// carrying columns they cannot store.
func TestFormatVersionGuards(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(filepath.Join(dir, "a.wtl"),
		Meta{Wearers: 10, SpanSeconds: 1, Cells: 4}); err == nil {
		t.Error("Create accepted a coupled sweep in format v0")
	}
	if _, err := Create(filepath.Join(dir, "fb1.wtl"),
		Meta{Wearers: 10, SpanSeconds: 1, Cells: 4, Version: FormatV1, Feedback: true}); err == nil {
		t.Error("Create accepted a feedback sweep in format v1")
	}
	if _, err := Create(filepath.Join(dir, "fb2.wtl"),
		Meta{Wearers: 10, SpanSeconds: 1, Version: FormatV2, Feedback: true}); err == nil {
		t.Error("Create accepted a feedback sweep without cells")
	}

	// A v1 writer must refuse equilibrium-carrying records instead of
	// dropping the columns (which would silently break replay).
	pv1 := filepath.Join(dir, "v1w.wtl")
	wv1, err := Create(pv1, Meta{Wearers: 10, SpanSeconds: 1, Cells: 5, Version: FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	defer wv1.Abort()
	eqRec := v1Record(0)
	eqRec.EqForeignLoadPPM = 55_000
	if err := wv1.Consume(eqRec); err == nil {
		t.Error("v1 writer accepted a record with equilibrium data")
	}
	if err := wv1.Consume(v1Record(0)); err != nil {
		t.Errorf("v1 writer refused a v1-shaped record: %v", err)
	}
	if _, err := Create(filepath.Join(dir, "b.wtl"),
		Meta{Wearers: 10, SpanSeconds: 1, Version: CurrentFormat + 1}); err == nil {
		t.Error("Create accepted an unknown future version")
	}
	if _, err := Create(filepath.Join(dir, "c.wtl"),
		Meta{Wearers: 10, SpanSeconds: 1, Cells: -1, Version: CurrentFormat}); err == nil {
		t.Error("Create accepted a negative cell count")
	}

	// A v0 writer must refuse cell-carrying records instead of dropping
	// the column (which would silently break resume fingerprints).
	p := filepath.Join(dir, "d.wtl")
	w, err := Create(p, Meta{Wearers: 10, SpanSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	rec := legacyRecord(0)
	rec.Cell = 2
	if err := w.Consume(rec); err == nil {
		t.Error("v0 writer accepted a record with a cell")
	}

	// A future-version header is refused by Open, OpenStrict and Resume
	// alike (the header CRC covers the meta JSON, so render a well-formed
	// header claiming a version this binary does not decode).
	fp := filepath.Join(dir, "future.wtl")
	hdr, err := encodeHeader(Meta{Wearers: 10, SpanSeconds: 1, Version: CurrentFormat + 8, BlockSize: DefaultBlockSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fp, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fp); err == nil {
		t.Error("Open accepted a future format version")
	}
	if _, err := OpenStrict(fp); err == nil {
		t.Error("OpenStrict accepted a future format version")
	}
	// Resume especially must refuse: its checkpoint-less scan fallback
	// would misdecode future blocks as damage and truncate them away.
	if _, err := resumeStore(t, fp, Meta{Wearers: 10, SpanSeconds: 1}); err == nil {
		t.Error("Resume accepted a future format version")
	}
}

// TestOpenStrictAuditsPastStaleCheckpoint pins the verify-mode contract:
// a valid-but-stale checkpoint must not shield CRC damage in later
// blocks from a strict read, and a strict read of an intact store sees
// every record.
func TestOpenStrictAuditsPastStaleCheckpoint(t *testing.T) {
	const n, blockSize = 32, 8
	path := writeStore(t, n, blockSize)

	// Strict read of the intact store: all records, no truncation.
	rs, err := OpenStrict(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, rs)); got != n {
		t.Fatalf("strict read saw %d/%d records", got, n)
	}
	if rs.Checkpointed() {
		t.Error("strict reader must not trust the checkpoint")
	}
	rs.Close()

	// Forge a stale-but-valid checkpoint that covers only the first
	// block, then corrupt a byte well past it.
	ck := staleCheckpoint(t, path, blockSize)
	if err := os.WriteFile(CheckpointPath(path), ck, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0x20 // inside the final block, past the stale checkpoint
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The checkpoint-trusting reader is blind to the damage…
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, r)); got != blockSize {
		t.Fatalf("checkpoint-bounded read saw %d records, want %d", got, blockSize)
	}
	r.Close()

	// …the strict reader is not.
	rs, err = OpenStrict(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sawErr := false
	for {
		_, err := rs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("strict read error %v, want ErrCorrupt", err)
			}
			break
		}
	}
	if !sawErr {
		t.Fatal("strict read missed CRC damage past a stale checkpoint")
	}
}

// staleCheckpoint builds a checkpoint sidecar payload that validly
// describes the store's state after its first block only.
func staleCheckpoint(t *testing.T, path string, blockSize int) []byte {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Meta()
	hdr, err := encodeHeader(meta)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame, err := readFrame(nil, f, int64(len(hdr)), r.StoredBytes())
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	end := int64(len(hdr) + len(frame))
	w := &Writer{path: path, meta: meta, offset: end, blocks: 1, next: blockSize}
	if err := w.writeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	ck, err := os.ReadFile(CheckpointPath(path))
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestOnCommitHook pins the block-commit tick a progress stream rides:
// the callback fires once per committed block, strictly after the
// checkpoint is durable, with monotone blocks/records/bytes that agree
// with the writer's own accounting — and a clean Close fires it for the
// short tail block too.
func TestOnCommitHook(t *testing.T) {
	const n, blockSize = 21, 8 // 2 full blocks + 5-record tail
	path := filepath.Join(t.TempDir(), "hook.wtl")
	w, err := Create(path, testMeta(n, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	type tick struct {
		blocks, records int
		bytes           int64
	}
	var ticks []tick
	w.OnCommit = func(blocks, records int, bytes int64) {
		// The checkpoint must already cover this commit when the hook runs:
		// a daemon that streams "records committed" on this tick promises
		// those records survive a kill.
		ck, err := readCheckpoint(path, testMeta(n, blockSize))
		if err != nil {
			t.Errorf("hook ran before a readable checkpoint: %v", err)
			return
		}
		if ck.NextWearer != records || ck.Offset != bytes {
			t.Errorf("hook saw records=%d bytes=%d but checkpoint says next=%d offset=%d",
				records, bytes, ck.NextWearer, ck.Offset)
		}
		ticks = append(ticks, tick{blocks, records, bytes})
	}
	for i := 0; i < n; i++ {
		if err := w.Consume(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(ticks) != 2 {
		t.Fatalf("hook fired %d times before Close, want 2 full blocks", len(ticks))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 3 {
		t.Fatalf("hook fired %d times after Close, want 3 (tail block included)", len(ticks))
	}
	want := []tick{{1, 8, ticks[0].bytes}, {2, 16, ticks[1].bytes}, {3, 21, ticks[2].bytes}}
	for i, tk := range ticks {
		if tk != want[i] {
			t.Errorf("tick %d: got %+v want %+v", i, tk, want[i])
		}
		if i > 0 && tk.bytes <= ticks[i-1].bytes {
			t.Errorf("tick %d: bytes %d not monotone over %d", i, tk.bytes, ticks[i-1].bytes)
		}
	}
}

// TestVersionHelpers pins the shared front-end version rules: the oldest
// format that can represent a sweep, and the create rule that keeps
// series-off stores byte-identical to v2-era ones.
func TestVersionHelpers(t *testing.T) {
	for _, c := range []struct {
		cells    int
		feedback bool
		series   bool
		want     int
	}{
		{0, false, false, FormatV0},
		{4, false, false, FormatV1},
		{4, true, false, FormatV2},
		{4, true, true, FormatV3},
		{0, false, true, FormatV3},
	} {
		if got := RequiredVersion(c.cells, c.feedback, c.series); got != c.want {
			t.Errorf("RequiredVersion(%d,%t,%t) = v%d, want v%d", c.cells, c.feedback, c.series, got, c.want)
		}
	}
	if got := CreateVersion(false); got != FormatV2 {
		t.Errorf("CreateVersion(false) = v%d, want v%d", got, FormatV2)
	}
	if got := CreateVersion(true); got != FormatV3 {
		t.Errorf("CreateVersion(true) = v%d, want v%d", got, FormatV3)
	}
}
