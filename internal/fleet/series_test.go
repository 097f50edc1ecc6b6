package fleet

// Fleet-level contracts of in-run series sampling (Fleet.Series): the
// sampler is inert — enabling it changes no simulated outcome — and the
// series-carrying store inherits every determinism guarantee the record
// store already had: byte-identical across worker counts and across
// kill/resume, with the series-off byte stream pinned to a pre-series
// golden hash.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// seriesStoreMeta lifts storeMeta to a series-enabled v3 store matching
// the fleet's cadence.
func seriesStoreMeta(f *Fleet, blockSize int) telemetry.Meta {
	m := storeMeta(f, blockSize)
	m.Version = telemetry.FormatV3
	m.SeriesCadenceSeconds = float64(f.Series)
	return m
}

// streamSeriesStore runs f into a fresh series store and returns the
// file bytes plus the live fingerprint.
func streamSeriesStore(t *testing.T, f *Fleet, blockSize int) ([]byte, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "series.wtl")
	store, err := telemetry.Create(path, seriesStoreMeta(f, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	agg := NewStreamAggregator(f.Span)
	if _, err := f.Stream(Tee(store, agg)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, agg.Report().Fingerprint()
}

// TestFleetSeriesInert: turning sampling on must not move a single bit
// of the aggregate — it rides the existing superframe tick and draws no
// randomness.
func TestFleetSeriesInert(t *testing.T) {
	off, _, err := testFleet(40, 4, 9).Run()
	if err != nil {
		t.Fatal(err)
	}
	fs := testFleet(40, 4, 9)
	fs.Series = units.Second / 2
	on, _, err := fs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if off.Fingerprint() != on.Fingerprint() {
		t.Fatal("series sampling perturbed the aggregate report")
	}
}

// TestFleetSeriesWorkerInvariance: the series-carrying store — samples
// included — is byte-identical for any worker count, because samples are
// generated inside each wearer's own kernel and emitted through the same
// in-order reorder window as the records.
func TestFleetSeriesWorkerInvariance(t *testing.T) {
	const wearers, blockSize = 48, 16
	var want []byte
	var wantFP string
	for _, workers := range []int{1, 3, 8} {
		f := testFleet(wearers, workers, 21)
		f.Series = units.Second / 2
		data, fp := streamSeriesStore(t, f, blockSize)
		if want == nil {
			want, wantFP = data, fp
			continue
		}
		if fp != wantFP {
			t.Fatalf("workers=%d: fingerprint diverged", workers)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("workers=%d: series store differs from workers=1 (%d vs %d bytes)",
				workers, len(data), len(want))
		}
	}
}

// TestFleetSeriesResumeGolden kills a series sweep mid-block, resumes it
// from the checkpoint, and demands both the fingerprint and the stored
// bytes — series frames and regenerated index included — match an
// uninterrupted run exactly.
func TestFleetSeriesResumeGolden(t *testing.T) {
	const wearers, blockSize, killAfter = 90, 16, 40
	ref := testFleet(wearers, 4, 77)
	ref.Series = units.Second / 2
	want, wantFP := streamSeriesStore(t, ref, blockSize)

	path := filepath.Join(t.TempDir(), "killed.wtl")
	f := testFleet(wearers, 4, 77)
	f.Series = units.Second / 2
	store, err := telemetry.Create(path, seriesStoreMeta(f, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	killer := SinkFunc(func(rec telemetry.Record) error {
		if seen == killAfter {
			return errKilled
		}
		seen++
		return store.Consume(rec)
	})
	if _, err := f.Stream(killer); err == nil {
		t.Fatal("kill-sink did not abort the sweep")
	}
	if err := store.Abort(); err != nil {
		t.Fatal(err)
	}

	resumed := resumeStore(t, path, seriesStoreMeta(f, blockSize))
	if wantNext := (killAfter / blockSize) * blockSize; resumed.NextWearer() != wantNext {
		t.Fatalf("resume at wearer %d, want %d", resumed.NextWearer(), wantNext)
	}
	agg := NewStreamAggregator(f.Span)
	reader, err := telemetry.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(reader, agg)
	reader.Close()
	if err != nil {
		t.Fatal(err)
	}
	if replayed != resumed.NextWearer() {
		t.Fatalf("replayed %d records, checkpoint says %d", replayed, resumed.NextWearer())
	}
	f2 := testFleet(wearers, 4, 77)
	f2.Series = units.Second / 2
	f2.Start = resumed.NextWearer()
	if _, err := f2.Stream(Tee(resumed, agg)); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if agg.Report().Fingerprint() != wantFP {
		t.Fatal("resumed series sweep fingerprint diverged")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed series store differs from uninterrupted one (%d vs %d bytes)", len(got), len(want))
	}
}

// TestFleetStoreByteGoldenV2 pins the end-to-end series-off byte stream
// — engine, record flattening, v2 encoder, checkpointing — to the hash
// recorded before series support existed. Every store written by
// earlier releases must keep resuming and replaying against this code.
func TestFleetStoreByteGoldenV2(t *testing.T) {
	const (
		goldenSHA = "6c75f5b211f4c243bfe04484f0404cd6bd58ba46ab8b9c11900553c8df072849"
		goldenLen = 8913
	)
	path := filepath.Join(t.TempDir(), "golden.wtl")
	f := testFleet(90, 4, 77)
	meta := storeMeta(f, 16)
	meta.Version = telemetry.FormatV2
	store, err := telemetry.Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stream(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if len(data) != goldenLen || hex.EncodeToString(sum[:]) != goldenSHA {
		t.Fatalf("series-off fleet store drifted: %d bytes, sha256 %s (want %d, %s)",
			len(data), hex.EncodeToString(sum[:]), goldenLen, goldenSHA)
	}
}

// TestFleetSeriesStoreByteGolden pins the end-to-end series-on byte
// stream — kernel sampling, the engine's series hand-off, the v3
// record+series encoder, the index frame and checkpointing — to a
// recorded hash, so a refactor of the sampling path cannot move a
// stored sample unnoticed.
func TestFleetSeriesStoreByteGolden(t *testing.T) {
	const (
		goldenSHA = "7f25575c3da44e0307a13ec257d13de80ff063557175ff464c95db95b49fe80c"
		goldenLen = 26998
	)
	f := testFleet(90, 4, 77)
	f.Series = 5 * units.Second
	data, _ := streamSeriesStore(t, f, 16)
	sum := sha256.Sum256(data)
	if len(data) != goldenLen || hex.EncodeToString(sum[:]) != goldenSHA {
		t.Fatalf("series fleet store drifted: %d bytes, sha256 %s (want %d, %s)",
			len(data), hex.EncodeToString(sum[:]), goldenLen, goldenSHA)
	}
}

// TestFleetSeriesStoreRefusal: a fleet sampling series must be paired
// with a series-enabled store — the writer refuses rather than silently
// dropping the samples.
func TestFleetSeriesStoreRefusal(t *testing.T) {
	f := testFleet(8, 2, 3)
	f.Series = units.Second
	path := filepath.Join(t.TempDir(), "refuse.wtl")
	store, err := telemetry.Create(path, storeMeta(f, 4)) // v0: no series frames
	if err != nil {
		t.Fatal(err)
	}
	defer store.Abort()
	if _, err := f.Stream(store); err == nil {
		t.Fatal("series records accepted by a series-off store")
	}
}
