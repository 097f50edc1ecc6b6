package fleet

// Tests for the feedback-coupled (equilibrium) engine: closing the
// collision→retry→offered-load loop must not cost any determinism
// contract — worker invariance and kill/resume goldens mirror the
// first-order coupled suite — and switching feedback off must leave the
// engine bit-identical to the first-order two-phase engine, so every
// pre-feedback fingerprint and v1 store replays unchanged.

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// feedbackFleet is coupledFleet with the feedback loop closed.
func feedbackFleet(wearers, workers int, seed int64, cells int) *Fleet {
	f := coupledFleet(wearers, workers, seed, cells)
	f.Coupling.Feedback = true
	return f
}

// TestFeedbackParallelismInvariance is the feedback determinism
// criterion: the equilibrium sweep's aggregate report — including the
// per-cell equilibrium loads and iteration counts — is byte-identical
// across worker counts.
func TestFeedbackParallelismInvariance(t *testing.T) {
	serial, _, err := feedbackFleet(120, 1, 99, 8).Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(serial)
	if len(serial.Cells) == 0 {
		t.Fatal("feedback sweep produced no cell stats")
	}
	var sawEq bool
	for _, c := range serial.Cells {
		if c.MeanEqForeignLoad < c.MeanForeignLoad {
			t.Fatalf("cell %d: equilibrium load %g below first-order %g",
				c.Cell, c.MeanEqForeignLoad, c.MeanForeignLoad)
		}
		if c.MeanEqForeignLoad > c.MeanForeignLoad {
			sawEq = true
		}
	}
	if !sawEq {
		t.Fatal("no cell's equilibrium load exceeded first-order — the feedback loop did nothing")
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		par, perf, err := feedbackFleet(120, workers, 99, 8).Run()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(par)
		if string(got) != string(want) {
			t.Fatalf("workers=%d diverged from workers=1 (%v)", workers, perf)
		}
	}
	// The feedback loop must be part of the fingerprint: the same sweep
	// first-order couples to a different report.
	firstOrder, _, err := coupledFleet(120, 4, 99, 8).Run()
	if err != nil {
		t.Fatal(err)
	}
	if firstOrder.Fingerprint() == serial.Fingerprint() {
		t.Fatal("closing the feedback loop does not affect the fingerprint")
	}
}

// TestFeedbackResumeGolden extends the kill/resume golden to the
// equilibrium engine: kill a feedback sweep at and inside a block
// boundary, resume from the checkpoint, and demand the exact
// uninterrupted fingerprint — then re-derive it from the store alone,
// which requires the v2 equilibrium columns to replay.
func TestFeedbackResumeGolden(t *testing.T) {
	const wearers, cells, blockSize = 90, 6, 16
	mk := func() *Fleet { return feedbackFleet(wearers, 4, 77, cells) }

	want, _, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	meta := telemetry.Meta{
		FleetSeed:   77,
		Wearers:     wearers,
		SpanSeconds: float64(30 * units.Second),
		Scenario:    "feedbackTestFleet;" + mk().Coupling.Tag(),
		BlockSize:   blockSize,
		Version:     telemetry.CurrentFormat,
		Cells:       cells,
		Feedback:    true,
	}

	for _, kill := range []struct {
		name  string
		after int
	}{
		{"at block boundary", 32},
		{"mid-block", 41},
	} {
		t.Run(kill.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "feedback.wtl")
			store, err := telemetry.Create(path, meta)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			killer := SinkFunc(func(rec telemetry.Record) error {
				if seen == kill.after {
					return errKilled
				}
				seen++
				return store.Consume(rec)
			})
			if _, err := mk().Stream(killer); err == nil {
				t.Fatal("kill-sink did not abort the sweep")
			}
			if err := store.Abort(); err != nil {
				t.Fatal(err)
			}

			resumed := resumeStore(t, path, meta)
			if wantNext := (kill.after / blockSize) * blockSize; resumed.NextWearer() != wantNext {
				t.Fatalf("resume at wearer %d, want %d", resumed.NextWearer(), wantNext)
			}
			agg := NewStreamAggregator(30 * units.Second)
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
			f2 := mk()
			f2.Start = resumed.NextWearer()
			if _, err := f2.Stream(Tee(resumed, agg)); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Close(); err != nil {
				t.Fatal(err)
			}
			if got := agg.Report(); got.Fingerprint() != want.Fingerprint() {
				t.Fatal("resumed feedback sweep diverged from uninterrupted run")
			}
			if got := reaggregate(t, path, 30*units.Second); got.Fingerprint() != want.Fingerprint() {
				t.Fatal("re-aggregation from the feedback store diverged")
			}
		})
	}
}

// TestFeedbackRecordsDominateFirstOrder checks the per-record
// monotonicity the property test asserts at the solver level, end to
// end through the engine: every record's equilibrium foreign load is at
// least its first-order one, and crowded cells report fixed-point
// rounds.
func TestFeedbackRecordsDominateFirstOrder(t *testing.T) {
	f := feedbackFleet(96, 4, 7, 3)
	sawIters := false
	sink := SinkFunc(func(rec telemetry.Record) error {
		if rec.EqForeignLoadPPM < rec.ForeignLoadPPM {
			t.Errorf("wearer %d: equilibrium foreign %d below first-order %d",
				rec.Wearer, rec.EqForeignLoadPPM, rec.ForeignLoadPPM)
		}
		if rec.FeedbackIters > 0 {
			sawIters = true
		}
		return nil
	})
	if _, err := f.Stream(sink); err != nil {
		t.Fatal(err)
	}
	if !sawIters {
		t.Fatal("no record reported fixed-point rounds in a 32-wearers-per-cell sweep")
	}
}

// TestFeedbackOffKeepsFirstOrderOutput pins the backward-compatibility
// acceptance criterion structurally: a first-order coupled report's
// fingerprint JSON carries no equilibrium fields at all (they are
// omitempty-zero), so every pre-feedback fingerprint replays unchanged,
// and its records carry zero equilibrium columns, so a v1 store layout
// still represents the sweep.
func TestFeedbackOffKeepsFirstOrderOutput(t *testing.T) {
	f := coupledFleet(60, 4, 5, 4)
	sink := SinkFunc(func(rec telemetry.Record) error {
		if rec.EqForeignLoadPPM != 0 || rec.FeedbackIters != 0 {
			t.Errorf("wearer %d: first-order sweep emitted equilibrium data (%d PPM, %d rounds)",
				rec.Wearer, rec.EqForeignLoadPPM, rec.FeedbackIters)
		}
		return nil
	})
	agg := NewStreamAggregator(f.Span)
	if _, err := f.Stream(Tee(agg, sink)); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(agg.Report())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"MeanEqForeignLoad", "FeedbackIters"} {
		if strings.Contains(string(blob), field) {
			t.Errorf("first-order report JSON carries %q — pre-feedback fingerprints would all change", field)
		}
	}
}

// TestFeedbackIsolatedMatchesUncoupledPhysics: with every wearer alone
// in its cell the fixed point is trivial (zero foreign load, zero
// rounds), so the feedback engine must reproduce uncoupled physics
// exactly — the equilibrium refinement is pure interference too.
func TestFeedbackIsolatedMatchesUncoupledPhysics(t *testing.T) {
	const wearers = 24
	f := feedbackFleet(wearers, 4, 3, 1<<20)
	seen := map[int]bool{}
	for w := 0; w < wearers; w++ {
		c := f.cellOf(w)
		if seen[c] {
			t.Fatalf("wearers collide in cell %d; pick another seed for this test", c)
		}
		seen[c] = true
	}
	coupled, _, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	un := coupledFleet(wearers, 4, 3, 1)
	un.Coupling = nil
	uncoupled, _, err := un.Run()
	if err != nil {
		t.Fatal(err)
	}
	if coupled.PacketsDelivered != uncoupled.PacketsDelivered ||
		coupled.PacketsDropped != uncoupled.PacketsDropped ||
		coupled.Events != uncoupled.Events ||
		coupled.DeliveryRate != uncoupled.DeliveryRate ||
		coupled.BatteryLifeHours != uncoupled.BatteryLifeHours {
		t.Fatalf("isolated feedback sweep diverged from uncoupled physics:\n%+v\n%+v", coupled, uncoupled)
	}
	for _, c := range coupled.Cells {
		if c.MeanForeignLoad != 0 || c.MeanEqForeignLoad != 0 || c.FeedbackIters != 0 {
			t.Fatalf("isolated cell %d reports interference %+v", c.Cell, c)
		}
	}
}

// TestFeedbackValidation covers the solver knobs' guard rails through
// the engine.
func TestFeedbackValidation(t *testing.T) {
	f := feedbackFleet(10, 2, 1, 4)
	f.Coupling.MaxIters = -1
	if _, _, err := f.Run(); err == nil {
		t.Error("negative iteration cap accepted")
	}
	f = feedbackFleet(10, 2, 1, 4)
	f.Coupling.TolPPM = -5
	if _, _, err := f.Run(); err == nil {
		t.Error("negative tolerance accepted")
	}
}

// TestFeedbackTagDistinguishesKnobs: the telemetry scenario tag must
// tell a feedback sweep (and its knobs) apart from a first-order one,
// or resume could splice different interference regimes into one store
// — while the first-order tag stays byte-identical to the pre-feedback
// one so v1 stores keep resuming.
func TestFeedbackTagDistinguishesKnobs(t *testing.T) {
	first := coupledFleet(10, 1, 1, 4).Coupling
	if got, want := first.Tag(), "cells=4;csma:beta=2,cap=0.95"; got != want {
		t.Fatalf("first-order tag %q, want the pre-feedback %q", got, want)
	}
	fb := feedbackFleet(10, 1, 1, 4).Coupling
	if fb.Tag() == first.Tag() {
		t.Fatal("feedback tag equals first-order tag")
	}
	loose := feedbackFleet(10, 1, 1, 4).Coupling
	loose.TolPPM = 1000
	if loose.Tag() == fb.Tag() {
		t.Fatal("tolerance knob missing from the tag")
	}
	capped := feedbackFleet(10, 1, 1, 4).Coupling
	capped.MaxIters = 3
	if capped.Tag() == fb.Tag() {
		t.Fatal("iteration-cap knob missing from the tag")
	}
}
