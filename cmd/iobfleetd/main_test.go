package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain lets tests re-exec this binary as the real iobfleetd daemon,
// pinning actual process behavior — exit codes, signal handling, what a
// SIGKILL leaves on disk — rather than in-process approximations.
func TestMain(m *testing.M) {
	if os.Getenv("IOBFLEETD_RUN_MAIN") == "1" {
		main()
		os.Exit(0) // drained cleanly
	}
	os.Exit(m.Run())
}

// syncBuffer collects daemon output from concurrent pipe readers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one live re-exec'd iobfleetd process under test.
type daemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	out  *syncBuffer
}

// startDaemon launches the daemon on a free port against dir and waits
// for its listen line so callers know the base URL.
func startDaemon(t *testing.T, dir string, args ...string) *daemon {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-data", dir}, args...)...)
	cmd.Env = append(os.Environ(), "IOBFLEETD_RUN_MAIN=1")
	out := &syncBuffer{}
	cmd.Stderr = out
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, out: out}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
		t.Logf("daemon output:\n%s", d.out.String())
	})
	// The first stdout line carries the resolved address; everything
	// after it streams into the shared buffer for post-mortem logs.
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		if i := strings.Index(line, "listening on http://"); i >= 0 {
			addr := strings.Fields(line[i+len("listening on "):])[0]
			d.base = addr
			go func() {
				for sc.Scan() {
					fmt.Fprintln(out, sc.Text())
				}
			}()
			return d
		}
	}
	cmd.Wait()
	t.Fatalf("daemon exited before listening:\n%s", out.String())
	return nil
}

// wait blocks for process exit and returns the exit code (-1 on signal
// death, matching os/exec).
func (d *daemon) wait() int {
	d.t.Helper()
	err := d.cmd.Wait()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		d.t.Fatal(err)
	}
	return ee.ExitCode()
}

// getJSON GETs base+path and decodes the JSON response into v,
// returning the status code.
func (d *daemon) getJSON(path string, v any) int {
	d.t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			d.t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

// submit POSTs a sweep spec and returns the accepted state.
func (d *daemon) submit(spec string) sweepState {
	d.t.Helper()
	resp, err := http.Post(d.base+"/api/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		d.t.Fatalf("submit %s: %d %s", spec, resp.StatusCode, body)
	}
	var st sweepState
	if err := json.Unmarshal(body, &st); err != nil {
		d.t.Fatal(err)
	}
	return st
}

// awaitStatus polls one sweep until it reaches status (or the deadline).
func (d *daemon) awaitStatus(id, status string, timeout time.Duration) sweepState {
	d.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st sweepState
		if code := d.getJSON("/api/sweeps/"+id, &st); code != http.StatusOK {
			d.t.Fatalf("sweep %s: status %d", id, code)
		}
		if st.Status == status {
			return st
		}
		if st.terminal() && status != st.Status {
			d.t.Fatalf("sweep %s reached %q (error %q) while waiting for %q", id, st.Status, st.Error, status)
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("sweep %s stuck at %q waiting for %q", id, st.Status, status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metrics scrapes /metrics and returns the raw exposition text.
func (d *daemon) metrics() string {
	d.t.Helper()
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		d.t.Errorf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample (by exact series name, labels
// included) from exposition text.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, text)
	return 0
}

// TestDaemonSmoke is the end-to-end pass over the whole HTTP surface:
// health, submission validation, a sweep run to completion, the NDJSON
// progress stream, a /metrics scrape checked for counter values,
// monotonicity and histogram self-consistency, and pprof.
func TestDaemonSmoke(t *testing.T) {
	d := startDaemon(t, t.TempDir())

	if code := d.getJSON("/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if code := d.getJSON("/api/sweeps/s999999", nil); code != http.StatusNotFound {
		t.Errorf("missing sweep: %d, want 404", code)
	}

	// Malformed specs bounce with 400 before touching the queue.
	for _, bad := range []string{
		`{"wearers":0,"dur_seconds":5}`,
		`{"wearers":50,"dur_seconds":5,"max_iters":3}`,
		`{"wearers":50,"dur_seconds":5,"unknown_knob":1}`,
		`{"wearers":50,"dur_seconds":5,"cells":4,"density":10}`,
	} {
		resp, err := http.Post(d.base+"/api/sweeps", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %s: %d, want 400", bad, resp.StatusCode)
		}
	}

	// A real sweep: coupled with feedback so the phase-1 and equilibrium
	// counters move too, with a small block size so progress ticks.
	const wearers = 60
	st := d.submit(`{"wearers":60,"seed":7,"dur_seconds":5,"cells":4,"feedback":true,"ble_frac":0.5,"block_size":8}`)
	if st.Status != statusQueued || st.ID == "" {
		t.Fatalf("submit returned %+v", st)
	}

	// The progress stream must deliver a final "done" line whose counts
	// match the store.
	resp, err := http.Get(d.base + "/api/sweeps/" + st.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("progress content type %q", ct)
	}
	var last progressEvent
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("progress line %q: %v", sc.Text(), err)
		}
		lines++
		if last.Final {
			break
		}
	}
	if !last.Final || last.Status != statusDone {
		t.Fatalf("progress stream ended at %+v after %d lines", last, lines)
	}
	if last.Records != wearers || last.WearersTotal != wearers {
		t.Errorf("final progress records %d/%d, want %d", last.Records, last.WearersTotal, wearers)
	}
	if last.Fingerprint == "" || last.Blocks == 0 || last.Bytes == 0 {
		t.Errorf("final progress missing store facts: %+v", last)
	}

	done := d.awaitStatus(st.ID, statusDone, 30*time.Second)
	if done.Fingerprint != last.Fingerprint {
		t.Errorf("GET fingerprint %q != progress fingerprint %q", done.Fingerprint, last.Fingerprint)
	}

	// Scrape 1: absolute values after exactly one completed sweep.
	m1 := d.metrics()
	for series, want := range map[string]float64{
		"iobfleetd_sweeps_submitted_total":       1,
		"iobfleetd_sweeps_started_total":         1,
		"iobfleetd_sweeps_completed_total":       1,
		"iobfleetd_sweeps_failed_total":          0,
		"iobfleetd_sweeps_running":               0,
		"iobfleetd_sweeps_queued":                0,
		"iobfleetd_wearers_simulated_total":      wearers,
		"iobfleetd_equilibrium_cells_total":      4,
		"iobfleetd_sweep_duration_seconds_count": 1,
	} {
		if got := metricValue(t, m1, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	for _, positive := range []string{
		"iobfleetd_kernel_events_total",
		"iobfleetd_phase1_gather_seconds_total",
		"iobfleetd_phase1_solve_seconds_total",
		"iobfleetd_equilibrium_iterations_total",
		"iobfleetd_telemetry_blocks_written_total",
		"iobfleetd_telemetry_bytes_written_total",
		"iobfleetd_goroutines",
		"iobfleetd_heap_alloc_bytes",
	} {
		if got := metricValue(t, m1, positive); !(got > 0) {
			t.Errorf("%s = %v, want > 0", positive, got)
		}
	}
	// Histogram self-consistency: cumulative buckets are nondecreasing
	// and the +Inf bucket equals _count.
	prev, inf := -1.0, 0.0
	for _, line := range strings.Split(m1, "\n") {
		if !strings.HasPrefix(line, "iobfleetd_sweep_duration_seconds_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Errorf("bucket counts regressed: %s", line)
		}
		prev, inf = v, v
	}
	if count := metricValue(t, m1, "iobfleetd_sweep_duration_seconds_count"); inf != count {
		t.Errorf("+Inf bucket %v != _count %v", inf, count)
	}

	// Scrape 2 after a second sweep: counters are monotone and exact.
	st2 := d.submit(`{"wearers":60,"seed":7,"dur_seconds":5,"cells":4,"feedback":true,"ble_frac":0.5,"block_size":8}`)
	done2 := d.awaitStatus(st2.ID, statusDone, 30*time.Second)
	if done2.Fingerprint != done.Fingerprint {
		t.Errorf("identical specs fingerprinted %q vs %q", done2.Fingerprint, done.Fingerprint)
	}
	m2 := d.metrics()
	for _, series := range []string{
		"iobfleetd_sweeps_completed_total",
		"iobfleetd_wearers_simulated_total",
		"iobfleetd_kernel_events_total",
		"iobfleetd_telemetry_bytes_written_total",
	} {
		v1, v2 := metricValue(t, m1, series), metricValue(t, m2, series)
		if v2 <= v1 {
			t.Errorf("%s not monotone across sweeps: %v → %v", series, v1, v2)
		}
	}
	if got := metricValue(t, m2, "iobfleetd_wearers_simulated_total"); got != 2*wearers {
		t.Errorf("wearers after two sweeps %v, want %v", got, 2*wearers)
	}

	// The sweep list carries both, in submission order.
	var all []sweepState
	d.getJSON("/api/sweeps", &all)
	if len(all) != 2 || all[0].ID != st.ID || all[1].ID != st2.ID {
		t.Errorf("sweep list %+v", all)
	}

	// pprof rides the same mux.
	if code := d.getJSON("/debug/pprof/cmdline", nil); code != http.StatusOK {
		t.Errorf("pprof: %d", code)
	}

	// SIGTERM with nothing running: clean exit 0.
	d.cmd.Process.Signal(syscall.SIGTERM)
	if code := d.wait(); code != 0 {
		t.Fatalf("idle daemon exited %d on SIGTERM, want 0", code)
	}
}

// TestDaemonDrainAndResume pins the graceful half of the chaos story: a
// SIGTERM mid-sweep checkpoints, parks the sweep as "interrupted",
// exits 0 — and a restart on the same data directory resumes it to the
// bit-identical fingerprint of an uninterrupted run.
func TestDaemonDrainAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second daemon lifecycle in -short mode")
	}
	dir := t.TempDir()
	d := startDaemon(t, dir)

	// Big enough to still be mid-run at the signal; workers pinned so the
	// duration is stable across machines.
	spec := `{"wearers":6000,"seed":11,"dur_seconds":30,"workers":2,"ble_frac":0.5,"block_size":64}`
	st := d.submit(spec)

	// Wait for durable progress so the resume has a checkpoint to use.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur sweepState
		d.getJSON("/api/sweeps/"+st.ID, &cur)
		if cur.Blocks >= 1 && cur.Status == statusRunning {
			break
		}
		if cur.terminal() {
			t.Fatalf("sweep finished before the drain could interrupt it: %+v (grow the spec)", cur)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no committed block after 60s: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	d.cmd.Process.Signal(syscall.SIGTERM)
	if code := d.wait(); code != 0 {
		t.Fatalf("draining daemon exited %d, want 0", code)
	}

	// The sidecar on disk says interrupted, with a partial record count.
	raw, err := os.ReadFile(dir + "/" + st.ID + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var parked sweepState
	if err := json.Unmarshal(raw, &parked); err != nil {
		t.Fatal(err)
	}
	if parked.Status != statusInterrupted {
		t.Fatalf("parked status %q, want interrupted:\n%s", parked.Status, raw)
	}
	if parked.Records <= 0 || parked.Records >= 6000 {
		t.Errorf("parked records %d, want a proper prefix of 6000", parked.Records)
	}

	// Restart: the sweep re-queues, resumes from the checkpoint and
	// finishes with the uninterrupted fingerprint.
	d2 := startDaemon(t, dir)
	done := d2.awaitStatus(st.ID, statusDone, 120*time.Second)
	if done.Records != 6000 {
		t.Errorf("resumed sweep records %d, want 6000", done.Records)
	}
	var js sweepSpec
	mustUnmarshalSpec(t, spec, &js)
	if fp := groundTruth(t, js, ""); done.Fingerprint != fp {
		t.Errorf("resumed fingerprint %q != uninterrupted %q", done.Fingerprint, fp)
	}
	if got := metricValue(t, d2.metrics(), "iobfleetd_sweeps_resumed_total"); got != 1 {
		t.Errorf("resumed_total %v, want 1", got)
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	if code := d2.wait(); code != 0 {
		t.Fatalf("second daemon exited %d, want 0", code)
	}
}
