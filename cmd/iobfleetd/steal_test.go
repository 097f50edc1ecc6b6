package main

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// awaitLiveBackends polls the coordinator's membership table until
// exactly n entries are live.
func awaitLiveBackends(t *testing.T, co *daemon, n int, timeout time.Duration) {
	t.Helper()
	if !settle(timeout, 50*time.Millisecond, func() bool {
		var table []memberState
		co.getJSON("/api/backends", &table)
		live := 0
		for _, m := range table {
			if m.Live {
				live++
			}
		}
		return live == n
	}) {
		t.Fatalf("fleet never reached %d live backends", n)
	}
}

// awaitMidRun polls a coordinator sweep until it is running with real
// replicated progress, so a fault injected afterwards lands mid-flight.
func awaitMidRun(t *testing.T, co *daemon, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st sweepState
		co.getJSON("/api/sweeps/"+id, &st)
		if st.terminal() {
			t.Fatalf("sweep finished before the fault: %+v (grow the spec)", st)
		}
		if st.Status == statusRunning && st.Records >= 64 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached mid-run state with replicated progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStealKilledBackendNeverRestarts is the self-healing acceptance
// gate: a fleet assembled purely by dynamic registration (no -backends
// flag anywhere), one backend SIGKILLed mid-sweep and never brought
// back. The survivors must absorb the dead backend's shards — its
// membership entry expires, dispatch rotates to the live entry, the
// replacement seed-pulls the partial replica — and the merged store
// must still come out byte-identical to an uninterrupted single-writer
// run. Both coupling modes, with series sampling on, because the torn
// replication tail differs across them.
func TestStealKilledBackendNeverRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon kill lifecycle in -short mode")
	}
	cases := []struct {
		name string
		spec string
	}{
		{"first-order", `{"wearers":6000,"seed":51,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"series_seconds":10,"block_size":64,"shards":3}`},
		{"feedback", `{"wearers":6000,"seed":52,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"feedback":true,"max_iters":64,"tol_ppm":200,"series_seconds":10,"block_size":64,"shards":3}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coDir := t.TempDir()
			co := startDaemon(t, coDir, "-expire", "1s", "-steal-after", "2s")
			b0 := startDaemon(t, t.TempDir(), "-register", co.base, "-heartbeat", "200ms")
			startDaemon(t, t.TempDir(), "-register", co.base, "-heartbeat", "200ms")
			awaitLiveBackends(t, co, 2, 30*time.Second)
			if got := metricValue(t, co.metrics(), "iobfleetd_backends_configured"); got != 0 {
				t.Fatalf("backends_configured %v, want 0 — this fleet must be dynamic-only", got)
			}

			id := co.submit(tc.spec).ID
			awaitMidRun(t, co, id, 90*time.Second)
			b0.cmd.Process.Signal(syscall.SIGKILL)
			b0.cmd.Wait()

			done := co.awaitStatus(id, statusDone, 300*time.Second)
			var spec sweepSpec
			mustUnmarshalSpec(t, tc.spec, &spec)
			truth, fp := groundTruthStore(t, spec)
			if done.Fingerprint != fp {
				t.Errorf("post-kill fingerprint %q != uninterrupted %q", done.Fingerprint, fp)
			}
			if done.Records != spec.Wearers {
				t.Errorf("records %d, want %d", done.Records, spec.Wearers)
			}
			if !bytes.Equal(storeBytes(t, coDir, id), truth) {
				t.Error("post-kill merged store differs byte-for-byte from an uninterrupted single-writer run")
			}

			// The dead backend's entry expires one -expire TTL after its
			// last heartbeat, and a fast recovery can finish sooner: wait
			// for the flip (expiry is lazy-on-read, so each poll re-checks).
			awaitLiveBackends(t, co, 1, 10*time.Second)
			text := co.metrics()
			if got := metricValue(t, text, "iobfleetd_shard_retries_total"); got <= 0 {
				t.Errorf("shard_retries_total %v after losing a backend for good, want > 0", got)
			}
			if got := metricValue(t, text, "iobfleetd_backends_live"); got != 1 {
				t.Errorf("backends_live %v with one backend dead, want 1", got)
			}
			// Expiry is lazy-on-read: the scrape above performed the flip, so
			// a second scrape observes the counted transition.
			if got := metricValue(t, co.metrics(), "iobfleetd_backends_expired_total"); got < 1 {
				t.Errorf("backends_expired_total %v, want >= 1 — the dead backend's heartbeats stopped", got)
			}
		})
	}
}

// TestStealStraggler pins the work-stealing path proper: a shard
// dispatched to a backend whose only runner slot is hogged by another
// sweep stalls with no progress, and once a second backend joins the
// fleet the supervisor plants a speculative copy there past the
// -steal-after deadline. The copy wins, the stuck loser is cancelled on
// its backend, and the merged result is still ground-truth-identical.
func TestStealStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon straggler lifecycle in -short mode")
	}
	co := startDaemon(t, t.TempDir(), "-steal-after", "500ms", "-expire", "5s")
	b0 := startDaemon(t, t.TempDir(), "-sweeps", "1", "-register", co.base, "-heartbeat", "200ms")
	awaitLiveBackends(t, co, 1, 30*time.Second)

	// Hog b0's single slot directly, so the shard copies dispatched to it
	// can only ever queue.
	hog := b0.submit(`{"wearers":200000,"seed":61,"dur_seconds":60,"workers":2,"block_size":16}`)
	b0.awaitStatus(hog.ID, statusRunning, 30*time.Second)

	raw := `{"wearers":120,"seed":62,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"block_size":16,"shards":2}`
	id := co.submit(raw).ID

	// Give the supervisors time to dispatch to the hogged backend and
	// stall, then offer them somewhere to steal to.
	time.Sleep(time.Second)
	startDaemon(t, t.TempDir(), "-register", co.base, "-heartbeat", "200ms")

	done := co.awaitStatus(id, statusDone, 180*time.Second)
	var spec sweepSpec
	mustUnmarshalSpec(t, raw, &spec)
	_, fp := groundTruthStore(t, spec)
	if done.Fingerprint != fp {
		t.Errorf("stolen sweep fingerprint %q != ground truth %q", done.Fingerprint, fp)
	}
	text := co.metrics()
	if got := metricValue(t, text, "iobfleetd_shards_stolen_total"); got < 1 {
		t.Errorf("shards_stolen_total %v, want >= 1", got)
	}
	if got := metricValue(t, text, "iobfleetd_shards_dispatched_total"); got < 3 {
		t.Errorf("shards_dispatched_total %v, want >= 3 (2 shards + at least one speculative copy)", got)
	}

	// The losing copies on the hogged backend must be cancelled — queued
	// work for a shard someone else finished is a leak.
	if !settle(30*time.Second, 100*time.Millisecond, func() bool {
		var all []sweepState
		b0.getJSON("/api/sweeps", &all)
		for _, st := range all {
			if strings.HasPrefix(st.Spec.Label, id+"/") && !st.terminal() {
				return false
			}
		}
		return metricValue(t, b0.metrics(), "iobfleetd_sweeps_queued") == 0
	}) {
		var all []sweepState
		b0.getJSON("/api/sweeps", &all)
		t.Errorf("losing shard copies never settled on the hogged backend: %+v", all)
	}

	// Cancel the hog through the API and watch the backend's gauges drain
	// to zero — no slot leaks from either the steal or the cancel.
	if code := deleteSweep(t, b0.base, hog.ID); code != http.StatusOK {
		t.Fatalf("DELETE hog: code %d, want 200", code)
	}
	b0.awaitStatus(hog.ID, statusCancelled, 60*time.Second)
	text = b0.metrics()
	if got := metricValue(t, text, "iobfleetd_sweeps_running"); got != 0 {
		t.Errorf("hogged backend running gauge %v after cancel, want 0", got)
	}
	if got := metricValue(t, text, "iobfleetd_sweeps_queued"); got != 0 {
		t.Errorf("hogged backend queued gauge %v after cancel, want 0", got)
	}
}

// TestCancelShardedPropagates drives DELETE through the whole
// coordinator stack: the parent parks cancelled, every sub-sweep on
// every backend is disowned, the partial shard stores are removed, and
// no gauge on any daemon is left holding a slot.
func TestCancelShardedPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon lifecycle in -short mode")
	}
	b0 := startDaemon(t, t.TempDir())
	b1 := startDaemon(t, t.TempDir())
	coDir := t.TempDir()
	co := startDaemon(t, coDir, "-backends", b0.base+","+b1.base)

	id := co.submit(`{"wearers":6000,"seed":63,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"block_size":64,"shards":3}`).ID
	awaitMidRun(t, co, id, 90*time.Second)

	if code := deleteSweep(t, co.base, id); code != http.StatusOK {
		t.Fatalf("DELETE running sharded sweep: code %d, want 200", code)
	}
	st := co.awaitStatus(id, statusCancelled, 60*time.Second)
	if !st.CancelRequested {
		t.Errorf("cancelled parent state %+v, want the request recorded", st)
	}

	// Partials are garbage once the parent is cancelled.
	if !settle(30*time.Second, 100*time.Millisecond, func() bool {
		left, _ := filepath.Glob(filepath.Join(coDir, id+".shard*"))
		return len(left) == 0
	}) {
		left, _ := filepath.Glob(filepath.Join(coDir, id+".shard*"))
		t.Errorf("partial shard stores leaked after cancellation: %v", left)
	}

	// Every sub-sweep must reach a terminal state on its backend — none
	// may keep running (or queued) for a coordinator that disowned them —
	// and every daemon's gauges must return to zero.
	settled := func(d *daemon) bool {
		var all []sweepState
		d.getJSON("/api/sweeps", &all)
		for _, s := range all {
			if !s.terminal() {
				return false
			}
		}
		text := d.metrics()
		return metricValue(t, text, "iobfleetd_sweeps_queued") == 0 &&
			metricValue(t, text, "iobfleetd_sweeps_running") == 0
	}
	if !settle(60*time.Second, 100*time.Millisecond, func() bool {
		return settled(co) && settled(b0) && settled(b1)
	}) {
		t.Error("fleet never settled after cancelling the sharded parent")
	}
	for _, b := range []*daemon{b0, b1} {
		var all []sweepState
		b.getJSON("/api/sweeps", &all)
		for _, s := range all {
			if s.Status == statusFailed {
				t.Errorf("sub-sweep %s failed during cancellation: %s", s.ID, s.Error)
			}
		}
	}
	if got := metricValue(t, co.metrics(), "iobfleetd_sweeps_cancelled_total"); got < 1 {
		t.Errorf("cancelled_total %v on the coordinator, want >= 1", got)
	}
}
