package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"wiban/internal/fleet"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// TestMain lets tests re-exec this binary as the real iobfleet command,
// pinning actual process exit codes and stderr rather than in-process
// error values.
func TestMain(m *testing.M) {
	if os.Getenv("IOBFLEET_RUN_MAIN") == "1" {
		main()
		os.Exit(0) // main returned without failing
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as iobfleet with the given args,
// returning the exit code and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "IOBFLEET_RUN_MAIN=1")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	runErr := cmd.Run()
	t.Logf("iobfleet %s: %v\n%s", strings.Join(args, " "), runErr, out.String())
	if runErr == nil {
		return 0, out.String()
	}
	var ee *exec.ExitError
	if !errors.As(runErr, &ee) {
		t.Fatal(runErr)
	}
	return ee.ExitCode(), out.String()
}

// TestFeedbackKnobExitCodes pins the real process behavior of the
// feedback flag validation: out-of-domain knobs exit non-zero with a
// usage message before any simulation starts, and a well-formed
// feedback sweep exits zero.
func TestFeedbackKnobExitCodes(t *testing.T) {
	base := []string{"-wearers", "8", "-dur", "1", "-cells", "2", "-feedback"}
	for name, extra := range map[string][]string{
		"zero tolerance":         {"-tol", "0"},
		"negative tolerance":     {"-tol", "-5"},
		"zero iteration cap":     {"-max-iters", "0"},
		"negative iteration cap": {"-max-iters", "-1"},
	} {
		t.Run(name, func(t *testing.T) {
			code, out := runMain(t, append(append([]string{}, base...), extra...)...)
			if code == 0 {
				t.Fatalf("invalid knob %v exited 0", extra)
			}
			if !strings.Contains(out, "usage") {
				t.Errorf("no usage message in output:\n%s", out)
			}
		})
	}
	t.Run("feedback without cells", func(t *testing.T) {
		code, out := runMain(t, "-wearers", "8", "-dur", "1", "-feedback")
		if code == 0 {
			t.Fatal("-feedback without a topology exited 0")
		}
		if !strings.Contains(out, "usage") {
			t.Errorf("no usage message in output:\n%s", out)
		}
	})
	t.Run("valid feedback sweep", func(t *testing.T) {
		code, out := runMain(t, append(append([]string{}, base...), "-workers", "2")...)
		if code != 0 {
			t.Fatalf("valid feedback sweep exited %d", code)
		}
		if !strings.Contains(out, "fingerprint") {
			t.Errorf("no fingerprint line in output:\n%s", out)
		}
	})
}

// TestDefaultFlagsProduceRunnableFleet mirrors main's construction with
// the default flag values and runs a miniature sweep: if a default ever
// stops validating, the CLI dies on startup — catch that in tests.
func TestDefaultFlagsProduceRunnableFleet(t *testing.T) {
	gen := &fleet.Generator{
		Base:          fleet.DefaultBase(),
		PERSpread:     0.5,
		BatterySpread: 0.3,
		HarvesterProb: 0.3,
		DropNodeProb:  0.25,
		BLEFraction:   0.25,
	}
	if err := gen.Validate(); err != nil {
		t.Fatalf("default generator invalid: %v", err)
	}
	f := &fleet.Fleet{Wearers: 20, Seed: 42, Scenario: gen.Scenario(), Span: 5 * units.Second, Workers: 2}
	s, err := sweep.Open(f, telemetry.Meta{}, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := s.Agg.Report()
	if rep.Wearers != 20 || rep.Nodes < 20 || rep.PacketsDelivered == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
}

// TestSignalCheckpointAndResume pins the graceful-stop contract at the
// process level: a streaming sweep SIGTERMed mid-run exits 0 (not
// signal death) with a resume hint, and rerunning with -resume finishes
// the sweep to the bit-identical fingerprint of an uninterrupted run.
func TestSignalCheckpointAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second signal lifecycle in -short mode")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "sig.wtl")
	// Blocks long against a commit make the stop land mid-block, with
	// records buffered past the checkpoint — the case the interrupt line
	// must not count.
	args := []string{"-wearers", "6000", "-dur", "30", "-workers", "2",
		"-seed", "21", "-block-size", "500", "-out", out}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "IOBFLEET_RUN_MAIN=1")
	var buf strings.Builder
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Signal only once a block is durable, so the resume leg has a
	// checkpoint to stand on. Create writes an initial wearer-0
	// checkpoint, so existence is not progress: wait for the sidecar's
	// content to move past whatever it held when first observed (each
	// rewrite is temp+rename, so reads are never torn).
	deadline := time.Now().Add(60 * time.Second)
	var initial []byte
	for {
		if b, err := os.ReadFile(telemetry.CheckpointPath(out)); err == nil {
			initial = b
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint after 60s:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		if b, err := os.ReadFile(telemetry.CheckpointPath(out)); err == nil && !bytes.Equal(b, initial) {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no committed block after 60s:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("signaled sweep exited non-zero: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "-resume") {
		t.Errorf("no resume hint in output:\n%s", buf.String())
	}

	// The store must be a genuine partial: checkpointed short of the
	// population (the poll guarantees at least one committed block).
	r, err := telemetry.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Meta()
	r.Close()
	fed := 0
	parked, err := telemetry.Resume(out, meta, func(telemetry.Record) error { fed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	next := parked.NextWearer()
	parked.Abort()
	if next <= 0 || next >= 6000 || fed != next {
		t.Fatalf("checkpoint at wearer %d after %d resumed records, want a proper prefix of 6000", next, fed)
	}
	// The wearer the interrupt line reports is the one the resume starts
	// from, not the writer's in-memory count, which runs ahead by the
	// records buffered toward the next block.
	var printed int
	if i := strings.Index(buf.String(), "checkpointed at wearer "); i < 0 {
		t.Fatalf("no checkpoint line in output:\n%s", buf.String())
	} else if _, err := fmt.Sscanf(buf.String()[i:], "checkpointed at wearer %d/", &printed); err != nil {
		t.Fatalf("unparsable checkpoint line: %v\n%s", err, buf.String())
	}
	if printed != next {
		t.Errorf("interrupt line reports wearer %d, resume starts from %d", printed, next)
	}

	code, resumeOut := runMain(t, append(append([]string{}, args...), "-resume")...)
	if code != 0 {
		t.Fatalf("resume leg exited %d", code)
	}
	want, wantOut := runMain(t, "-wearers", "6000", "-dur", "30", "-workers", "2", "-seed", "21")
	if want != 0 {
		t.Fatalf("reference run exited %d", want)
	}
	fp := func(s string) string {
		i := strings.Index(s, "fingerprint ")
		if i < 0 {
			t.Fatalf("no fingerprint line:\n%s", s)
		}
		return strings.Fields(s[i:])[1]
	}
	if got, ref := fp(resumeOut), fp(wantOut); got != ref {
		t.Errorf("resumed fingerprint %s != uninterrupted %s", got, ref)
	}
}

// TestCLIStoreMatchesSweepRun is the differential pin between the two
// front ends: the iobfleet process streaming to -out must write the
// byte-identical store sweep.Open/Run writes for the equivalent JSON
// spec — the spec iobfleetd persists and runs. JSON zero is literal, so
// every generator knob the JSON omits is passed to the CLI as an
// explicit 0 (the first case instead spells out the CLI defaults in the
// JSON). The feedback case pins the solver-default spellings to each
// other: the CLI's -max-iters default against a JSON spec that omits
// max_iters.
func TestCLIStoreMatchesSweepRun(t *testing.T) {
	zeros := []string{"-per-spread", "0", "-batt-spread", "0", "-harvest-prob", "0", "-drop-prob", "0", "-ble-frac", "0"}
	cases := []struct {
		name string
		args []string
		spec string
	}{
		{
			"uncoupled",
			[]string{"-wearers", "40", "-seed", "3", "-dur", "5", "-block-size", "8"},
			`{"wearers":40,"seed":3,"dur_seconds":5,"per_spread":0.5,"batt_spread":0.3,"harvest_prob":0.3,"drop_prob":0.25,"ble_frac":0.25,"block_size":8}`,
		},
		{
			"density",
			append([]string{"-wearers", "60", "-seed", "5", "-dur", "5", "-density", "7.5", "-block-size", "8"}, zeros...),
			`{"wearers":60,"seed":5,"dur_seconds":5,"density":7.5,"block_size":8}`,
		},
		{
			"feedback",
			append([]string{"-wearers", "60", "-seed", "7", "-dur", "5", "-cells", "4", "-feedback", "-block-size", "8"}, zeros...),
			`{"wearers":60,"seed":7,"dur_seconds":5,"cells":4,"feedback":true,"block_size":8}`,
		},
		{
			"series",
			append([]string{"-wearers", "40", "-seed", "9", "-dur", "5", "-cells", "4", "-series", "1", "-block-size", "8"}, zeros...),
			`{"wearers":40,"seed":9,"dur_seconds":5,"cells":4,"series_seconds":1,"block_size":8}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cli := filepath.Join(dir, "cli.wtl")
			code, out := runMain(t, append(tc.args, "-workers", "2", "-out", cli)...)
			if code != 0 {
				t.Fatalf("iobfleet exited %d", code)
			}

			var spec sweep.Spec
			dec := json.NewDecoder(strings.NewReader(tc.spec))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				t.Fatal(err)
			}
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			f, meta, err := spec.Build(nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := filepath.Join(dir, "spec.wtl")
			s, err := sweep.Open(f, meta, ref, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if fp := s.Agg.Report().Fingerprint()[:16]; !strings.Contains(out, "fingerprint "+fp) {
				t.Errorf("CLI output lacks the spec's fingerprint %s", fp)
			}
			a, err := os.ReadFile(cli)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("CLI store (%d bytes) differs from the sweep.Run store (%d bytes)", len(a), len(b))
			}
		})
	}
}

// TestProfileFlags pins the real process behavior of -cpuprofile and
// -memprofile: a sweep run with both exits zero and leaves non-empty
// pprof files behind, and an unwritable profile path fails loudly
// instead of silently profiling nowhere.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	code, out := runMain(t,
		"-wearers", "16", "-dur", "2", "-workers", "2",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("profiled sweep exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "fingerprint") {
		t.Errorf("no fingerprint line in output:\n%s", out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	// Both profile paths must fail fast — before the sweep runs — so a
	// typo'd flag never costs a long simulation its uncommitted tail.
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		code, _ = runMain(t, "-wearers", "4", "-dur", "1",
			flag, filepath.Join(dir, "no", "such", "dir", "prof.out"))
		if code == 0 {
			t.Fatalf("unwritable %s path exited 0", flag)
		}
	}
}
