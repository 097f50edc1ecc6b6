package sweep

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/telemetry"
)

// run opens spec's sweep at path and runs it to completion, returning
// the fingerprint.
func run(t *testing.T, spec Spec, path string, resume bool) string {
	t.Helper()
	f, meta, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(f, meta, path, resume)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s.Agg.Report().Fingerprint()
}

func readStore(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestOpenRun is the store lifecycle every front end rides: a sweep
// stopped mid-block (its context ended while records sat in the
// uncommitted tail) keeps its checkpoint, a spec describing a different
// sweep is refused with telemetry.ErrMismatch, and Open-resume + Run finishes it
// to the fingerprint — and, when the format is unchanged, the store
// bytes — of an uninterrupted run. The cases cover every store format
// the spec surface can produce, a v1 store a first-order coupled sweep
// wrote before feedback existed, and density-derived cells.
func TestOpenRun(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		killAt  int         // wearer whose scenario ends the context
		version int         // store format to create (0 = what Build picks)
		other   func(*Spec) // a different sweep the guard must refuse
	}{
		{
			name:   "uncoupled",
			spec:   Spec{Wearers: 40, Seed: 9, DurSeconds: 5, PERSpread: 0.5, BatterySpread: 0.3, BlockSize: 8},
			killAt: 19,
			other:  func(s *Spec) { s.Seed = 10 },
		},
		{
			name:   "coupled",
			spec:   Spec{Wearers: 40, Seed: 11, DurSeconds: 5, PERSpread: 0.5, BLEFraction: 0.5, Cells: 4, BlockSize: 8},
			killAt: 21,
			other:  func(s *Spec) { s.Cells = 8 },
		},
		{
			name:   "feedback",
			spec:   Spec{Wearers: 40, Seed: 11, DurSeconds: 5, PERSpread: 0.5, BLEFraction: 0.5, Cells: 4, Feedback: true, BlockSize: 8},
			killAt: 21,
			other:  func(s *Spec) { s.Feedback = false },
		},
		{
			name:   "series",
			spec:   Spec{Wearers: 40, Seed: 5, DurSeconds: 5, BLEFraction: 0.5, Cells: 4, SeriesSeconds: 1, BlockSize: 8},
			killAt: 13,
			other:  func(s *Spec) { s.SeriesSeconds = 2 },
		},
		{
			// A v1 store (what a first-order coupled binary wrote before
			// feedback existed) resumes in its own format.
			name:    "v1-store",
			spec:    Spec{Wearers: 30, Seed: 3, DurSeconds: 5, BLEFraction: 1, Cells: 3, BlockSize: 8},
			killAt:  17,
			version: telemetry.FormatV1,
			other:   func(s *Spec) { s.Feedback = true },
		},
		{
			// density 2.5 over 40 wearers is 16 cells, the same sweep as
			// cells 16 — the guard compares the derived topology.
			name:   "density",
			spec:   Spec{Wearers: 40, Seed: 4, DurSeconds: 5, BLEFraction: 0.5, Density: 2.5, BlockSize: 8},
			killAt: 11,
			other:  func(s *Spec) { s.Cells = 15 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			truthPath := filepath.Join(dir, "truth.wtl")
			want := run(t, spec, truthPath, false)

			// Leg 1: stop while wearer killAt is in flight. One worker makes
			// the stop land exactly at that record boundary, mid-block.
			path := filepath.Join(dir, "sweep.wtl")
			f, meta, err := spec.Build(nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.version != 0 {
				meta.Version = tc.version
			}
			ctx, stop := context.WithCancelCause(context.Background())
			defer stop(nil)
			errKill := errors.New("simulated kill")
			scenario := f.Scenario
			f.Workers = 1
			f.Scenario = func(w int, rng *rand.Rand) (bannet.Config, error) {
				if w == tc.killAt {
					stop(errKill)
				}
				return scenario(w, rng)
			}
			s, err := Open(f, meta, path, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(ctx); err != errKill {
				t.Fatalf("stopped sweep returned %v, want the context's cause", err)
			}
			wantNext := tc.killAt / spec.BlockSize * spec.BlockSize
			_, _, next, err := telemetry.Committed(path)
			if err != nil {
				t.Fatal(err)
			}
			if next != wantNext || tc.killAt%spec.BlockSize == 0 {
				t.Fatalf("checkpoint at wearer %d, want %d with a torn block after it", next, wantNext)
			}

			// The guard: a different sweep is refused, and refusing leaves
			// the checkpoint resumable.
			other := spec
			tc.other(&other)
			if err := other.Normalize(); err != nil {
				t.Fatal(err)
			}
			f2, meta2, err := other.Build(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Open(f2, meta2, path, true); !errors.Is(err, telemetry.ErrMismatch) {
				t.Fatalf("resume with %+v: %v, want ErrMismatch", other, err)
			}

			// Leg 2: resume and finish.
			f, meta, err = spec.Build(nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err = Open(f, meta, path, true)
			if err != nil {
				t.Fatal(err)
			}
			if f.Start != wantNext || s.Agg.Wearers() != wantNext {
				t.Fatalf("resumed at wearer %d with %d replayed, want %d", f.Start, s.Agg.Wearers(), wantNext)
			}
			r, err := telemetry.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Meta().Version; tc.version != 0 && got != tc.version {
				t.Fatalf("resumed v%d store reports version %d", tc.version, got)
			}
			r.Close()
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := s.Agg.Report().Fingerprint(); got != want {
				t.Fatalf("resumed fingerprint %s, uninterrupted %s", got, want)
			}
			if tc.version == 0 && !bytes.Equal(readStore(t, path), readStore(t, truthPath)) {
				t.Fatal("resumed store differs byte-for-byte from an uninterrupted one")
			}
		})
	}
}

// TestRefusedResumeLeavesStoreUntouched: a resume refused because the
// store describes a different sweep must not touch the store. A complete
// v3 series store keeps its trailing index frame, and its checkpoint
// sidecar stays byte for byte what the finished sweep wrote.
func TestRefusedResumeLeavesStoreUntouched(t *testing.T) {
	spec := Spec{Wearers: 24, Seed: 5, DurSeconds: 5, BLEFraction: 0.5, SeriesSeconds: 1, BlockSize: 8}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.wtl")
	run(t, spec, path, false)
	data, sidecar := readStore(t, path), readStore(t, telemetry.CheckpointPath(path))
	other := spec
	other.Seed = 6
	f, meta, err := other.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f, meta, path, true); !errors.Is(err, telemetry.ErrMismatch) {
		t.Fatalf("resume with seed %d: %v, want ErrMismatch", other.Seed, err)
	}
	if got := readStore(t, path); !bytes.Equal(got, data) {
		t.Errorf("refused resume rewrote the store: %d bytes, was %d", len(got), len(data))
	}
	if got := readStore(t, telemetry.CheckpointPath(path)); !bytes.Equal(got, sidecar) {
		t.Errorf("refused resume rewrote the sidecar: %s, was %s", got, sidecar)
	}
}

// TestOpenWithoutStore pins the storeless path (iobfleet without -out)
// and the failure of resuming a store that does not exist, which is an
// I/O error, not a mismatch.
func TestOpenWithoutStore(t *testing.T) {
	spec := Spec{Wearers: 6, Seed: 1, DurSeconds: 2}
	f, meta, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(f, meta, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Store != nil {
		t.Fatal("storeless open created a store")
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Agg.Wearers() != 6 {
		t.Errorf("aggregated %d wearers, want 6", s.Agg.Wearers())
	}
	_, err = Open(f, meta, filepath.Join(t.TempDir(), "missing.wtl"), true)
	if err == nil || errors.Is(err, telemetry.ErrMismatch) {
		t.Errorf("resuming a missing store: %v, want an I/O error", err)
	}
}

// TestDensityDerivation pins the density → cells arithmetic:
// ceil(wearers/density), with density 1 giving every wearer its own cell
// and fractional densities asking for more cells than wearers. The
// normalized spec carries the cells only, and density and cells together
// are refused.
func TestDensityDerivation(t *testing.T) {
	for _, c := range []struct {
		wearers int
		density float64
		want    int
	}{
		{1000, 40, 25},
		{1000, 1, 1000},
		{1000, 3, 334},
		{1000, 2.5, 400},
		{1000, 0.5, 2000},
		{7, 100, 1},
	} {
		s := Spec{Wearers: c.wearers, DurSeconds: 1, Density: c.density}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if s.Cells != c.want || s.Density != 0 {
			t.Errorf("wearers=%d density=%g: cells=%d density=%g, want cells=%d density=0",
				c.wearers, c.density, s.Cells, s.Density, c.want)
		}
	}
	both := Spec{Wearers: 10, DurSeconds: 1, Density: 2, Cells: 5}
	if err := both.Normalize(); err == nil {
		t.Error("cells and density together accepted")
	}
}
