package fleet

// End-to-end golden test for the telemetry store: a sweep streamed to
// disk, killed mid-run, resumed from the checkpoint, must finish with the
// exact fingerprint of an uninterrupted sweep — and the stored file alone
// must re-derive that same report.

import (
	"fmt"
	"path/filepath"
	"testing"

	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// errKilled is the sentinel the kill-sink aborts the sweep with.
var errKilled = fmt.Errorf("simulated kill")

// storeMeta builds the telemetry meta for a test fleet.
func storeMeta(f *Fleet, blockSize int) telemetry.Meta {
	return telemetry.Meta{
		FleetSeed:   f.Seed,
		Wearers:     f.Wearers,
		SpanSeconds: float64(f.Span),
		Scenario:    "testFleet",
		BlockSize:   blockSize,
	}
}

// resumeStore resumes the store at path as meta's sweep through a
// counting sink and checks that Resume fed it exactly the committed
// records it resumes after.
func resumeStore(t *testing.T, path string, meta telemetry.Meta) *telemetry.Writer {
	t.Helper()
	fed := 0
	w, err := telemetry.Resume(path, meta, func(telemetry.Record) error { fed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if first, _ := meta.Range(); first+fed != w.NextWearer() {
		t.Fatalf("Resume fed %d records from wearer %d, resumes at %d", fed, first, w.NextWearer())
	}
	return w
}

// reaggregate replays the whole store into a fresh aggregator — the
// iobtrace `report` path — and returns the report.
func reaggregate(t *testing.T, path string, span units.Duration) *Report {
	t.Helper()
	r, err := telemetry.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	agg := NewStreamAggregator(span)
	if _, err := Replay(r, agg); err != nil {
		t.Fatal(err)
	}
	return agg.Report()
}

// TestResumeGolden is the acceptance scenario. For kills exactly on a
// block boundary and mid-block: run a sweep into a telemetry store,
// abort after K records (losing any unflushed tail, like a real kill),
// resume from the checkpoint, and demand the final fingerprint equal the
// uninterrupted run's — then re-derive the same report from the file
// alone.
func TestResumeGolden(t *testing.T) {
	const wearers, blockSize = 90, 16

	// Reference: uninterrupted streamed sweep.
	want, _, err := testFleet(wearers, 4, 77).Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, kill := range []struct {
		name  string
		after int // records consumed before the "kill"
	}{
		{"at block boundary", 32}, // 2 full blocks committed, buffer empty
		{"mid-block", 40},         // 8 buffered records lost with the kill
	} {
		t.Run(kill.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.wtl")
			f := testFleet(wearers, 4, 77)
			store, err := telemetry.Create(path, storeMeta(f, blockSize))
			if err != nil {
				t.Fatal(err)
			}
			// First leg: stream into the store, die after `after` records.
			seen := 0
			killer := SinkFunc(func(rec telemetry.Record) error {
				if seen == kill.after {
					return errKilled
				}
				seen++
				return store.Consume(rec)
			})
			if _, err := f.Stream(killer); err == nil {
				t.Fatal("kill-sink did not abort the sweep")
			}
			if err := store.Abort(); err != nil { // kill: no flush, no final checkpoint
				t.Fatal(err)
			}

			// Second leg: resume from the checkpoint and finish.
			resumed := resumeStore(t, path, storeMeta(f, blockSize))
			wantNext := (kill.after / blockSize) * blockSize // committed blocks only
			if resumed.NextWearer() != wantNext {
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
			f2.Start = resumed.NextWearer()
			if _, err := f2.Stream(Tee(resumed, agg)); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Close(); err != nil {
				t.Fatal(err)
			}

			if got := agg.Report(); got.Fingerprint() != want.Fingerprint() {
				t.Fatal("resumed sweep fingerprint diverged from uninterrupted run")
			}
			// The stored file alone re-derives the identical report.
			if got := reaggregate(t, path, f.Span); got.Fingerprint() != want.Fingerprint() {
				t.Fatal("re-aggregation from the telemetry store diverged")
			}
		})
	}
}

// TestStreamed100k is the scale criterion: a 100k-wearer sweep streamed
// through the telemetry sink, with the reorder window — not the fleet —
// bounding live reports, and the stored file re-deriving the exact
// fingerprint. ~2 simulated seconds per wearer keeps it a few wall-clock
// seconds per core.
func TestStreamed100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-wearer sweep in -short mode")
	}
	const wearers = 100_000
	f := testFleet(wearers, 0, 123)
	f.Span = 2 * units.Second
	path := filepath.Join(t.TempDir(), "100k.wtl")
	store, err := telemetry.Create(path, storeMeta(f, 0))
	if err != nil {
		t.Fatal(err)
	}
	agg := NewStreamAggregator(f.Span)
	perf, err := f.Stream(Tee(store, agg))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	rep := agg.Report()
	if rep.Wearers != wearers {
		t.Fatalf("aggregated %d wearers", rep.Wearers)
	}
	// O(1) in fleet size: live reports never exceeded the reorder
	// window, which depends only on the worker count.
	if bound := 4 * perf.Workers; perf.MaxPending > bound {
		t.Fatalf("window peaked at %d pending reports (bound %d) — streaming broke", perf.MaxPending, bound)
	}
	t.Logf("100k sweep: %v; store %d blocks", perf, store.Blocks())

	if got := reaggregate(t, path, f.Span); got.Fingerprint() != rep.Fingerprint() {
		t.Fatal("stored 100k run did not re-derive the live fingerprint")
	}
}
