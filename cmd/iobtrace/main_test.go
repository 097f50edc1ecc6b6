package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"wiban/internal/fleet"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// writeSweep streams a miniature fleet into a telemetry store and
// returns its path plus the live fingerprint.
func writeSweep(t *testing.T) (string, string) {
	t.Helper()
	gen := &fleet.Generator{Base: fleet.DefaultBase(), PERSpread: 0.5, BatterySpread: 0.3}
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	f := &fleet.Fleet{Wearers: 30, Seed: 7, Scenario: gen.Scenario(), Span: 5 * units.Second, Workers: 2}
	path := filepath.Join(t.TempDir(), "sweep.wtl")
	store, err := telemetry.Create(path, telemetry.Meta{
		FleetSeed: f.Seed, Wearers: f.Wearers, SpanSeconds: float64(f.Span),
		Scenario: gen.Tag(), BlockSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	agg := fleet.NewStreamAggregator(f.Span)
	if _, err := f.Stream(fleet.Tee(store, agg)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return path, agg.Report().Fingerprint()
}

// open returns a fresh reader for the store.
func open(t *testing.T, path string) *telemetry.Reader {
	t.Helper()
	r, err := telemetry.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestSubcommandsOnCompleteStore runs every subcommand body against a
// freshly written store.
func TestSubcommandsOnCompleteStore(t *testing.T) {
	path, want := writeSweep(t)

	if err := info(open(t, path)); err != nil {
		t.Errorf("info: %v", err)
	}
	if err := verify(open(t, path)); err != nil {
		t.Errorf("verify: %v", err)
	}
	if err := report(open(t, path)); err != nil {
		t.Errorf("report: %v", err)
	}
	if err := wearer(open(t, path), 17); err != nil {
		t.Errorf("wearer: %v", err)
	}
	if err := wearer(open(t, path), 99); err == nil || !strings.Contains(err.Error(), "not in store") {
		t.Errorf("missing wearer: err = %v", err)
	}

	// The re-derived aggregate matches the live sweep bit-for-bit.
	r := open(t, path)
	agg := fleet.NewStreamAggregator(units.Duration(r.Meta().SpanSeconds))
	if _, err := fleet.Replay(r, agg); err != nil {
		t.Fatal(err)
	}
	if got := agg.Report().Fingerprint(); got != want {
		t.Fatalf("re-aggregated fingerprint %s, live sweep %s", got, want)
	}
}

// TestVerifyFlagsCorruption flips a byte and demands verify fail loudly.
func TestVerifyFlagsCorruption(t *testing.T) {
	path, _ := writeSweep(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verify(open(t, path)); err == nil {
		t.Fatal("verify accepted a corrupted store")
	}
}

// TestMain lets tests re-exec this binary as the real iobtrace command,
// pinning actual process exit codes rather than in-process error values.
func TestMain(m *testing.M) {
	if os.Getenv("IOBTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0) // main returned without failing
	}
	os.Exit(m.Run())
}

// corruptPastStaleCheckpoint installs a genuinely valid sidecar that
// only vouches for the store's first block, then flips a byte in its
// final block — the damage a checkpoint-trusting verify used to miss.
// The stale sidecar is produced by the telemetry layer itself (a scan
// resume over a copy of the one-block prefix), so it carries a correct
// self-CRC and seed check — exactly what a kill after the first commit
// would have left behind.
func corruptPastStaleCheckpoint(t *testing.T, path string, blockSize int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Index(data, []byte("WBLK"))
	second := bytes.Index(data[first+4:], []byte("WBLK"))
	if first < 0 || second < 0 {
		t.Fatalf("store has fewer than two blocks (first=%d second=%d)", first, second)
	}
	scratch := filepath.Join(t.TempDir(), "stale.wtl")
	if err := os.WriteFile(scratch, data[:first+4+second], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := telemetry.Open(scratch)
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Meta()
	r.Close()
	fed := 0
	w, err := telemetry.Resume(scratch, meta, func(telemetry.Record) error { fed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if w.NextWearer() != blockSize || fed != blockSize {
		t.Fatalf("one-block prefix checkpointed at wearer %d after %d resumed records, want %d",
			w.NextWearer(), fed, blockSize)
	}
	w.Abort()
	ck, err := os.ReadFile(telemetry.CheckpointPath(scratch))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(telemetry.CheckpointPath(path), ck, 0o644); err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0x20 // damage inside the final block, past the stale checkpoint
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyFlagsCorruptionPastStaleCheckpoint is the regression pin for
// the strict-verify fix: a CRC-invalid file must fail verification even
// when the header parses and a stale-but-valid checkpoint sidecar vouches
// for an earlier prefix. The checkpoint-trusting reader (what verify used
// to run on) is demonstrably blind to the damage, so without OpenStrict
// this test fails.
func TestVerifyFlagsCorruptionPastStaleCheckpoint(t *testing.T) {
	path, _ := writeSweep(t)
	corruptPastStaleCheckpoint(t, path, 8)

	// The damage hides from a checkpoint-trusting read…
	blind := open(t, path)
	if err := blind.EachRecord(func(telemetry.Record) error { return nil }); err != nil {
		t.Fatalf("checkpoint-bounded reader surfaced the damage itself: %v", err)
	}
	// …but strict verify must catch it.
	rs, err := telemetry.OpenStrict(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := verify(rs); err == nil {
		t.Fatal("verify accepted a CRC-invalid store behind a stale checkpoint")
	}
}

// TestVerifyExitCodes pins the command's actual process exit codes: 0 on
// an intact store, non-zero once a byte flips — with and without the
// checkpoint sidecar shielding the damage.
func TestVerifyExitCodes(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := func(path string) int {
		cmd := exec.Command(bin, "verify", path)
		cmd.Env = append(os.Environ(), "IOBTRACE_RUN_MAIN=1")
		var out strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		t.Logf("verify %s: %v\n%s", path, err, out.String())
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		return ee.ExitCode()
	}

	clean, _ := writeSweep(t)
	if code := run(clean); code != 0 {
		t.Fatalf("verify of an intact store exited %d", code)
	}

	stale, _ := writeSweep(t)
	corruptPastStaleCheckpoint(t, stale, 8)
	if code := run(stale); code == 0 {
		t.Fatal("verify exited 0 on a CRC-invalid store behind a stale checkpoint")
	}

	flipped, _ := writeSweep(t)
	data, err := os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0x40
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(flipped); code == 0 {
		t.Fatal("verify exited 0 on a CRC-flipped store")
	}
}

// TestCellsReport drives the per-cell subcommand against a coupled sweep
// and checks an uncoupled store is refused with a helpful error.
func TestCellsReport(t *testing.T) {
	uncoupled, _ := writeSweep(t)
	if err := cells(open(t, uncoupled)); err == nil || !strings.Contains(err.Error(), "uncoupled") {
		t.Errorf("cells on an uncoupled store: err = %v", err)
	}

	// A miniature coupled sweep streamed to a v1 store.
	f := &fleet.Fleet{
		Wearers:  40,
		Seed:     5,
		Scenario: (&fleet.Generator{Base: fleet.DefaultBase(), BLEFraction: 1}).Scenario(),
		Span:     5 * units.Second,
		Workers:  2,
		Coupling: &fleet.Coupling{Cells: 4},
	}
	path := filepath.Join(t.TempDir(), "coupled.wtl")
	store, err := telemetry.Create(path, telemetry.Meta{
		FleetSeed: f.Seed, Wearers: f.Wearers, SpanSeconds: float64(f.Span),
		Scenario: "cells-test;" + f.Coupling.Tag(), BlockSize: 8,
		Version: telemetry.CurrentFormat, Cells: f.Coupling.Cells,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stream(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cells(open(t, path)); err != nil {
		t.Errorf("cells: %v", err)
	}
	if err := info(open(t, path)); err != nil {
		t.Errorf("info on coupled store: %v", err)
	}
}

// writeCoupledStore streams a miniature coupled sweep into a store of
// the given format, optionally with the feedback loop closed.
func writeCoupledStore(t *testing.T, version int, feedback bool) string {
	t.Helper()
	f := &fleet.Fleet{
		Wearers:  40,
		Seed:     5,
		Scenario: (&fleet.Generator{Base: fleet.DefaultBase(), BLEFraction: 1}).Scenario(),
		Span:     5 * units.Second,
		Workers:  2,
		Coupling: &fleet.Coupling{Cells: 4, Feedback: feedback},
	}
	path := filepath.Join(t.TempDir(), "coupled.wtl")
	store, err := telemetry.Create(path, telemetry.Meta{
		FleetSeed: f.Seed, Wearers: f.Wearers, SpanSeconds: float64(f.Span),
		Scenario: "cells-test;" + f.Coupling.Tag(), BlockSize: 8,
		Version: version, Cells: f.Coupling.Cells, Feedback: feedback,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stream(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI re-execs this test binary as the real iobtrace command and
// returns its process exit code plus combined output.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "IOBTRACE_RUN_MAIN=1")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	err = cmd.Run()
	if err == nil {
		return 0, out.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return ee.ExitCode(), out.String()
}

// TestHeaderOnlyStoreExitCodes pins the header-only contract end to end:
// a store holding a valid header but zero committed blocks must pass
// verify and info with exit 0, info must say so in words, and the old
// "0.00x compression" misreport must stay gone.
func TestHeaderOnlyStoreExitCodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "header-only.wtl")
	w, err := telemetry.Create(path, telemetry.Meta{
		FleetSeed: 3, Wearers: 12, SpanSeconds: 5,
		Version: telemetry.CurrentFormat, BlockSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if code, out := runCLI(t, "verify", path); code != 0 {
		t.Fatalf("verify of a header-only store exited %d:\n%s", code, out)
	}
	code, out := runCLI(t, "info", path)
	if code != 0 {
		t.Fatalf("info of a header-only store exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "header only, no committed records") {
		t.Errorf("info did not flag the header-only store:\n%s", out)
	}
	if strings.Contains(out, "0.00x") {
		t.Errorf("info still misreports compression on an empty store:\n%s", out)
	}
}

// writeSeriesSweep streams a miniature series-sampling fleet into a v3
// store and returns its path.
func writeSeriesSweep(t *testing.T) string {
	t.Helper()
	gen := &fleet.Generator{Base: fleet.DefaultBase(), PERSpread: 0.5, BatterySpread: 0.3}
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	f := &fleet.Fleet{
		Wearers: 30, Seed: 7, Scenario: gen.Scenario(),
		Span: 5 * units.Second, Workers: 2,
		Series: units.Second / 2,
	}
	path := filepath.Join(t.TempDir(), "series.wtl")
	store, err := telemetry.Create(path, telemetry.Meta{
		FleetSeed: f.Seed, Wearers: f.Wearers, SpanSeconds: float64(f.Span),
		Scenario: gen.Tag(), BlockSize: 8,
		Version: telemetry.FormatV3, SeriesCadenceSeconds: float64(f.Series),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stream(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestQueryCommand pins the real query subcommand: exit 0 and a value
// matching the library on a series store, exit non-zero with a directed
// message on a store that was swept without sampling.
func TestQueryCommand(t *testing.T) {
	path := writeSeriesSweep(t)

	want, err := telemetry.QueryStore(path, telemetry.Query{
		Metric: "charge", FromMS: 1000, ToMS: 4000, Cell: -1, Node: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.Points == 0 {
		t.Fatal("series sweep produced no samples in the query window")
	}
	code, out := runCLI(t, "query", "-metric", "charge",
		"-from", "1", "-to", "4", "-agg", "avg", path)
	if code != 0 {
		t.Fatalf("query exited %d:\n%s", code, out)
	}
	if wantLine := fmt.Sprintf("avg(charge) = %g", want.Mean()); !strings.Contains(out, wantLine) {
		t.Errorf("query output missing %q:\n%s", wantLine, out)
	}
	if wantLine := fmt.Sprintf("samples: %d matched", want.Points); !strings.Contains(out, wantLine) {
		t.Errorf("query output missing %q:\n%s", wantLine, out)
	}

	if code, out := runCLI(t, "query", "-agg", "p95", "-metric", "queue", path); code != 0 {
		t.Fatalf("percentile query exited %d:\n%s", code, out)
	} else if !strings.Contains(out, "p95(queue) = ") {
		t.Errorf("percentile query output malformed:\n%s", out)
	}

	// Info on the same store surfaces the series cadence and sample count.
	if code, out := runCLI(t, "info", path); code != 0 {
		t.Fatalf("info on series store exited %d:\n%s", code, out)
	} else if !strings.Contains(out, "series:") || !strings.Contains(out, "cadence") {
		t.Errorf("info on a series store omitted the series line:\n%s", out)
	}

	// A store swept without sampling is refused with a directed message.
	off, _ := writeSweep(t)
	code, out = runCLI(t, "query", "-metric", "charge", off)
	if code == 0 {
		t.Fatalf("query exited 0 on a series-off store:\n%s", out)
	}
	if !strings.Contains(out, "no series") {
		t.Errorf("series-off refusal lacks a directed message:\n%s", out)
	}
}

// TestCellsColumnsByFormat pins the real command's rendering across
// store generations: a v1 (pre-feedback) store renders the per-cell
// table without equilibrium columns instead of erroring, and a feedback
// (v2) store shows the first-order and equilibrium loads side by side.
func TestCellsColumnsByFormat(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := func(path string) string {
		cmd := exec.Command(bin, "cells", path)
		cmd.Env = append(os.Environ(), "IOBTRACE_RUN_MAIN=1")
		var out strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Run(); err != nil {
			t.Fatalf("iobtrace cells %s: %v\n%s", path, err, out.String())
		}
		return out.String()
	}

	v1 := run(writeCoupledStore(t, telemetry.FormatV1, false))
	if !strings.Contains(v1, "foreign[erl]") {
		t.Errorf("v1 table lost the first-order column:\n%s", v1)
	}
	if strings.Contains(v1, "eq[erl]") || strings.Contains(v1, "iters") {
		t.Errorf("v1 (pre-feedback) store rendered equilibrium columns:\n%s", v1)
	}

	fb := run(writeCoupledStore(t, telemetry.CurrentFormat, true))
	for _, col := range []string{"foreign[erl]", "eq[erl]", "iters"} {
		if !strings.Contains(fb, col) {
			t.Errorf("feedback table missing %q:\n%s", col, fb)
		}
	}
}

// TestSamplesDoNotChangeRecordOutput pins that report, cells and wearer
// read records only: on a -series 1 store they must print exactly what
// they print on the series-off store of the same coupled sweep.
func TestSamplesDoNotChangeRecordOutput(t *testing.T) {
	write := func(series bool) string {
		f := &fleet.Fleet{
			Wearers:  40,
			Seed:     5,
			Scenario: (&fleet.Generator{Base: fleet.DefaultBase(), BLEFraction: 0.5}).Scenario(),
			Span:     5 * units.Second,
			Workers:  2,
			Coupling: &fleet.Coupling{Cells: 4},
		}
		meta := telemetry.Meta{
			FleetSeed: f.Seed, Wearers: f.Wearers, SpanSeconds: float64(f.Span),
			Scenario: "series-test;" + f.Coupling.Tag(), BlockSize: 8,
			Version: telemetry.CreateVersion(series), Cells: f.Coupling.Cells,
		}
		if series {
			f.Series = units.Second
			meta.SeriesCadenceSeconds = float64(f.Series)
		}
		path := filepath.Join(t.TempDir(), "sweep.wtl")
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
		return path
	}
	on, off := write(true), write(false)
	if code, out := runCLI(t, "info", on); code != 0 || !strings.Contains(out, "series:") {
		t.Fatalf("info on the series store exited %d without a series line:\n%s", code, out)
	}
	for _, args := range [][]string{{"report"}, {"cells"}, {"wearer", "-w", "17"}} {
		codeOn, outOn := runCLI(t, append(args, on)...)
		codeOff, outOff := runCLI(t, append(args, off)...)
		if codeOn != 0 || codeOff != 0 {
			t.Fatalf("%v exited %d on the series store, %d on the series-off one:\n%s\n%s",
				args, codeOn, codeOff, outOn, outOff)
		}
		if outOn != outOff {
			t.Errorf("%v prints differently with samples in the store:\n--- series\n%s--- series off\n%s",
				args, outOn, outOff)
		}
	}
}
