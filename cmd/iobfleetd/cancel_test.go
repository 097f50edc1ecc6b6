package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wiban/internal/obs"
	"wiban/internal/sweep"
)

// deleteSweep issues DELETE /api/sweeps/{id} against a test server and
// returns the HTTP status code.
func deleteSweep(t *testing.T, base, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/api/sweeps/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCancelQueued pins the queued→cancelled transition: the sweep
// leaves the pending list and the queued gauge on the spot, the sidecar
// records the terminal state, a second DELETE is idempotent, and an
// unknown ID is a 404. No runners are started, so the sweep cannot
// escape the queue mid-test.
func TestCancelQueued(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(m, reg))
	defer srv.Close()

	st, err := m.submit(minimalSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if code := deleteSweep(t, srv.URL, st.ID); code != http.StatusOK {
		t.Fatalf("DELETE queued sweep: code %d, want 200", code)
	}
	got, _ := m.get(st.ID)
	if s := got.snapshot(); s.Status != statusCancelled || !s.CancelRequested {
		t.Errorf("state after cancel: %+v, want cancelled with the request recorded", s)
	}
	text := scrape(t, reg)
	if q := metricValue(t, text, "iobfleetd_sweeps_queued"); q != 0 {
		t.Errorf("queued gauge %v after cancelling the only queued sweep, want 0", q)
	}
	if c := metricValue(t, text, "iobfleetd_sweeps_cancelled_total"); c != 1 {
		t.Errorf("cancelled_total %v, want 1", c)
	}
	m.mu.Lock()
	pending := len(m.pending)
	m.mu.Unlock()
	if pending != 0 {
		t.Errorf("pending list holds %d sweeps after cancel, want 0", pending)
	}

	// Idempotent re-DELETE; 404 for an ID that never existed.
	if code := deleteSweep(t, srv.URL, st.ID); code != http.StatusOK {
		t.Errorf("second DELETE: code %d, want 200 (idempotent)", code)
	}
	if c := metricValue(t, scrape(t, reg), "iobfleetd_sweeps_cancelled_total"); c != 1 {
		t.Errorf("cancelled_total %v after idempotent re-DELETE, want still 1", c)
	}
	if code := deleteSweep(t, srv.URL, "s999999"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown sweep: code %d, want 404", code)
	}

	// A restart must not resurrect it: the sidecar is terminal.
	m2, err := newManager(dir, 1, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sw2, ok := m2.get(st.ID)
	if !ok || sw2.snapshot().Status != statusCancelled {
		t.Errorf("recovered state %+v, want the cancellation to survive restart", sw2.snapshot())
	}
	m2.mu.Lock()
	if len(m2.pending) != 0 {
		t.Errorf("restart re-queued a cancelled sweep (pending=%d)", len(m2.pending))
	}
	m2.mu.Unlock()
}

// TestCancelRunning drives a live runner: DELETE on a running sweep
// trips the latch, the engine checkpoints-and-parks at the next record
// boundary, gauges settle to zero, and the checkpointed store survives
// for retention to collect later.
func TestCancelRunning(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(m, reg))
	defer srv.Close()
	m.start(srv.URL)
	defer m.beginDrain()

	st, err := m.submit(sweepSpec{Spec: sweep.Spec{Wearers: 200000, Seed: 9, DurSeconds: 30, Workers: 2, BlockSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := m.get(st.ID)
	deadline := time.Now().Add(30 * time.Second)
	for sw.snapshot().Status != statusRunning || sw.snapshot().Records == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reached running with progress: %+v", sw.snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if code := deleteSweep(t, srv.URL, st.ID); code != http.StatusOK {
		t.Fatalf("DELETE running sweep: code %d, want 200", code)
	}
	for sw.snapshot().Status != statusCancelled {
		if time.Now().After(deadline) {
			t.Fatalf("runner never parked the sweep cancelled: %+v", sw.snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}

	text := scrape(t, reg)
	if r := metricValue(t, text, "iobfleetd_sweeps_running"); r != 0 {
		t.Errorf("running gauge %v after cancellation, want 0", r)
	}
	if q := metricValue(t, text, "iobfleetd_sweeps_queued"); q != 0 {
		t.Errorf("queued gauge %v after cancellation, want 0", q)
	}
	if c := metricValue(t, text, "iobfleetd_sweeps_cancelled_total"); c != 1 {
		t.Errorf("cancelled_total %v, want 1", c)
	}
	if i := metricValue(t, text, "iobfleetd_sweeps_interrupted_total"); i != 0 {
		t.Errorf("interrupted_total %v after a cancel, want 0 — cancellation is not a drain", i)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+".wtl")); err != nil {
		t.Errorf("cancelled sweep's checkpointed store missing: %v", err)
	}
}

// TestCancelRecovery covers the two recovery edges: a sidecar caught
// between the DELETE and the runner's acknowledgement (running +
// cancel_requested) finalizes as cancelled instead of re-queueing, and
// DELETE on an already-done sweep is a 409.
func TestCancelRecovery(t *testing.T) {
	dir := t.TempDir()
	write := func(st sweepState) {
		raw, err := json.MarshalIndent(&st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, st.ID+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(sweepState{ID: "s000000", Spec: minimalSpec(1), Status: statusRunning, CancelRequested: true})
	write(sweepState{ID: "s000001", Spec: minimalSpec(2), Status: statusDone, Fingerprint: "feed"})

	reg := obs.NewRegistry()
	m, err := newManager(dir, 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := m.get("s000000")
	if !ok || sw.snapshot().Status != statusCancelled {
		t.Fatalf("interrupted cancellation recovered as %+v, want finalized cancelled", sw.snapshot())
	}
	text := scrape(t, reg)
	if q := metricValue(t, text, "iobfleetd_sweeps_queued"); q != 0 {
		t.Errorf("queued gauge %v, want 0 — a cancel-requested sweep must not re-queue", q)
	}
	if c := metricValue(t, text, "iobfleetd_sweeps_cancelled_total"); c != 1 {
		t.Errorf("cancelled_total %v, want 1 (the recovery finalization)", c)
	}

	srv := httptest.NewServer(newMux(m, reg))
	defer srv.Close()
	if code := deleteSweep(t, srv.URL, "s000001"); code != http.StatusConflict {
		t.Errorf("DELETE done sweep: code %d, want 409", code)
	}
	if _, err := m.cancel("s000001"); !errors.Is(err, errTerminal) {
		t.Errorf("cancel(done) = %v, want errTerminal", err)
	}
}

// TestCancelLabelRevival pins the steal protocol's revival path: a
// cancelled sweep resubmitted under its label re-queues (fresh latch,
// cancel flags cleared) instead of answering with the terminal state.
func TestCancelLabelRevival(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := minimalSpec(1)
	spec.Label = "parent/shard0"
	st, err := m.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.cancel(st.ID); err != nil {
		t.Fatal(err)
	}

	revived, err := m.submit(spec)
	if err != nil {
		t.Fatalf("revival submit: %v", err)
	}
	if revived.ID != st.ID {
		t.Errorf("revival minted a new sweep %s, want the labelled one %s back", revived.ID, st.ID)
	}
	if revived.Status != statusQueued || revived.CancelRequested {
		t.Errorf("revived state %+v, want queued with the cancel flags cleared", revived)
	}
	text := scrape(t, reg)
	if q := metricValue(t, text, "iobfleetd_sweeps_queued"); q != 1 {
		t.Errorf("queued gauge %v after revival, want 1", q)
	}
	// The revived run must not inherit the cancellation: it runs to done.
	m.start("")
	defer m.beginDrain()
	if done := awaitSweep(t, m, st.ID, statusDone, 30*time.Second); done.Fingerprint == "" {
		t.Errorf("revived sweep finished without a fingerprint: %+v", done)
	}
}

// TestBackoffDelay pins the retry pacing: exponential from 50ms to a
// 500ms ceiling, jittered uniformly over [cap/2, cap) — never zero, and
// never the full cap in lockstep.
func TestBackoffDelay(t *testing.T) {
	for attempt := 0; attempt <= 10; attempt++ {
		base := 50 * time.Millisecond << attempt
		if base > 500*time.Millisecond {
			base = 500 * time.Millisecond
		}
		for i := 0; i < 200; i++ {
			if d := backoffDelay(attempt); d < base/2 || d >= base {
				t.Fatalf("attempt %d draw %d: %v outside [%v, %v)", attempt, i, d, base/2, base)
			}
		}
	}
}

// TestPermanentClassification pins which backend errors abandon a shard
// (a 400 is a deterministic spec rejection — the same spec would be
// rejected everywhere) and which rotate to another backend.
func TestPermanentClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"bad request", &httpStatusError{code: 400, msg: "bad spec"}, true},
		{"wrapped bad request", fmt.Errorf("shard 0: %w", &httpStatusError{code: 400}), true},
		{"not found", &httpStatusError{code: 404}, false},
		{"server error", &httpStatusError{code: 500}, false},
		{"draining", &httpStatusError{code: 503, msg: "draining"}, false},
		{"transport", errors.New("connection refused"), false},
	}
	for _, tc := range cases {
		if got := permanent(tc.err); got != tc.want {
			t.Errorf("permanent(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
