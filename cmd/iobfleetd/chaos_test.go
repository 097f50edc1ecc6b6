package main

import (
	"encoding/json"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestChaosKillResume is the acceptance gate for crash-proof drain: two
// sweeps running concurrently, the daemon SIGKILLed mid-flight (no
// drain, no checkpoint flush — whatever the last block commit left on
// disk is all the next process gets), then a restart on the same data
// directory. Every sweep must finish with a fingerprint bit-identical
// to an uninterrupted in-process run of the same spec, and the killed
// sweeps must have actually resumed from their checkpoints rather than
// silently restarted from scratch.
func TestChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/restart lifecycle in -short mode")
	}
	dir := t.TempDir()
	d := startDaemon(t, dir, "-sweeps", "2")

	// Two different specs — different seeds and physics — so a crossed
	// resume (sweep A continuing from sweep B's checkpoint) cannot pass.
	specs := []string{
		`{"wearers":6000,"seed":3,"dur_seconds":30,"workers":2,"ble_frac":0.5,"block_size":64}`,
		`{"wearers":6000,"seed":4,"dur_seconds":30,"workers":2,"ble_frac":1,"cells":16,"block_size":64}`,
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = d.submit(spec).ID
	}

	// Kill only once both sweeps are mid-run with durable progress: at
	// least one committed block each, neither finished.
	deadline := time.Now().Add(60 * time.Second)
	for {
		ready := 0
		for _, id := range ids {
			var cur sweepState
			d.getJSON("/api/sweeps/"+id, &cur)
			if cur.terminal() {
				t.Fatalf("sweep %s finished before the kill: %+v (grow the spec)", id, cur)
			}
			if cur.Status == statusRunning && cur.Blocks >= 1 {
				ready++
			}
		}
		if ready == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweeps never reached concurrent mid-run state")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait() // no exit-code claim: SIGKILL is not graceful, that's the point

	// Restart on the same directory: recovery re-queues both, resumes
	// from the checkpoints and runs them out.
	d2 := startDaemon(t, dir, "-sweeps", "2")
	for i, id := range ids {
		done := d2.awaitStatus(id, statusDone, 180*time.Second)
		var spec sweepSpec
		mustUnmarshalSpec(t, specs[i], &spec)
		if fp := groundTruth(t, spec, ""); done.Fingerprint != fp {
			t.Errorf("sweep %s: resumed fingerprint %q != uninterrupted %q", id, done.Fingerprint, fp)
		}
		if done.Records != spec.Wearers {
			t.Errorf("sweep %s: %d records, want %d", id, done.Records, spec.Wearers)
		}
	}
	// Both were mid-run with committed blocks at the kill, so both must
	// have resumed — a scratch restart would also pass the fingerprint
	// check, and this is what rules it out.
	if got := metricValue(t, d2.metrics(), "iobfleetd_sweeps_resumed_total"); got != float64(len(ids)) {
		t.Errorf("resumed_total %v, want %d", got, len(ids))
	}
	d2.cmd.Process.Signal(syscall.SIGTERM)
	if code := d2.wait(); code != 0 {
		t.Fatalf("post-chaos daemon exited %d on SIGTERM, want 0", code)
	}
}

// mustUnmarshalSpec parses and normalizes a JSON spec exactly the way
// the daemon does, so the expected-fingerprint runs use the identical
// fleet construction.
func mustUnmarshalSpec(t *testing.T, raw string, spec *sweepSpec) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
}
