package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wiban/internal/obs"
	"wiban/internal/sweep"
)

// minimalSpec is a spec that passes normalize but — with no runners
// started — never executes, so queue mechanics can be tested in
// isolation from the engine.
func minimalSpec(seed int64) sweepSpec {
	return sweepSpec{Spec: sweep.Spec{Wearers: 8, Seed: seed, DurSeconds: 1}}
}

// scrape renders the registry's exposition text without a live server.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestSubmitQueueFull pins the submission-order invariant: the
// queue-capacity check runs before any state is created, so a refused
// submission leaves no sidecar, no registry entry and no gauge
// increment. (The original bug persisted the sweep and bumped the gauge
// first, leaving orphaned state the next restart would re-queue.)
func TestSubmitQueueFull(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.queueCap = 1 // runners never start, so one slot fills the queue

	if _, err := m.submit(minimalSpec(1)); err != nil {
		t.Fatal(err)
	}
	_, err = m.submit(minimalSpec(2))
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("over-cap submit: %v, want queue-full error", err)
	}

	// The refusal must be invisible: exactly one sweep anywhere.
	if got := m.list(); len(got) != 1 {
		t.Errorf("registry holds %d sweeps after refusal, want 1", len(got))
	}
	sidecars, _ := filepath.Glob(filepath.Join(dir, "s*.json"))
	if len(sidecars) != 1 {
		t.Errorf("%d sidecars on disk after refusal, want 1: %v", len(sidecars), sidecars)
	}
	text := scrape(t, reg)
	if got := metricValue(t, text, "iobfleetd_sweeps_queued"); got != 1 {
		t.Errorf("queued gauge %v after refusal, want 1", got)
	}
	if got := metricValue(t, text, "iobfleetd_sweeps_submitted_total"); got != 1 {
		t.Errorf("submitted_total %v after refusal, want 1", got)
	}

	// A refused submission must not burn an ID either: the next accepted
	// sweep is s000001, not s000002.
	m.queueCap = 2
	st, err := m.submit(minimalSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "s000001" {
		t.Errorf("post-refusal submit got ID %s, want s000001", st.ID)
	}
}

// TestRecoverBeyondQueueCap pins recovery's unbounded staging: a dead
// process may leave arbitrarily many queued sidecars — more than the
// submission queue cap — and the next process must still come up. (The
// original bug staged recovery through the bounded queue, so sidecar
// number queueCap+1 deadlocked newManager before the listener existed.)
func TestRecoverBeyondQueueCap(t *testing.T) {
	dir := t.TempDir()
	n := defaultQueueCap + 1
	for i := 0; i < n; i++ {
		st := sweepState{
			ID:     fmt.Sprintf("s%06d", i),
			Spec:   minimalSpec(int64(i)),
			Status: statusQueued,
		}
		raw, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, st.ID+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		m   *manager
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := newManager(dir, 1, obs.NewRegistry(), nil)
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		r.m.mu.Lock()
		queued, pending := r.m.queued, len(r.m.pending)
		r.m.mu.Unlock()
		if queued != n || pending != n {
			t.Errorf("recovered queued=%d pending=%d, want %d each", queued, pending, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("newManager deadlocked recovering more sidecars than the queue cap")
	}
}

// TestDrainQueuedGauge pins the drain hand-back: a sweep popped by a
// runner that loses the race with beginDrain goes back to the front of
// the queue, still queued on disk, in memory and in the gauge. (The
// original bug returned early without re-queuing, leaking the gauge and
// orphaning the sweep until restart.)
func TestDrainQueuedGauge(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := newManager(t.TempDir(), 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.submit(minimalSpec(1)); err != nil {
		t.Fatal(err)
	}

	// Replay the losing race by hand: pop like a runner, then drain
	// before run() begins. No runners were started, so beginDrain
	// returns as soon as the flag is set.
	m.mu.Lock()
	sw := m.pending[0]
	m.pending = m.pending[1:]
	m.mu.Unlock()
	m.beginDrain()
	m.run(sw)

	m.mu.Lock()
	queued, pending := m.queued, len(m.pending)
	var front *job
	if pending > 0 {
		front = m.pending[0]
	}
	m.mu.Unlock()
	if queued != 1 {
		t.Errorf("queued count %d after drain hand-back, want 1", queued)
	}
	if front != sw {
		t.Errorf("drained sweep not back at the queue front (pending %d)", pending)
	}
	if got := sw.snapshot().Status; got != statusQueued {
		t.Errorf("drained sweep status %q, want %q", got, statusQueued)
	}
	if got := metricValue(t, scrape(t, reg), "iobfleetd_sweeps_queued"); got != 1 {
		t.Errorf("queued gauge %v after drain hand-back, want 1", got)
	}
}

// TestHealthzDrainAware pins readiness semantics: /healthz answers 200
// only while the daemon accepts work, and flips to 503 the moment it
// drains — the probe coordinators use to route shards away from a
// backend that would refuse them. (The original bug kept /healthz at
// 200 during drain, so shard dispatch kept selecting dying backends.)
func TestHealthzDrainAware(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := newManager(t.TempDir(), 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(m, reg))
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", code)
	}
	m.beginDrain()
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", code)
	}
	// Readiness and behavior must agree: everything that creates or
	// computes work refuses alongside the probe.
	spec := `{"wearers":8,"seed":1,"dur_seconds":1}`
	if code := post("/api/sweeps", spec); code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", code)
	}
	loads := `{"wearers":8,"seed":1,"dur_seconds":1,"cells":4}`
	if code := post("/api/loads", loads); code != http.StatusServiceUnavailable {
		t.Errorf("loads gather during drain: %d, want 503", code)
	}
}

// TestSubmitLabelIdempotent pins the shard-dispatch contract: the same
// label with the same spec returns the existing sweep; the same label
// with a different spec is refused rather than silently re-bound.
func TestSubmitLabelIdempotent(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := minimalSpec(1)
	spec.Label = "parent/shard0"
	first, err := m.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != first.ID {
		t.Errorf("re-dispatch created %s, want existing %s", again.ID, first.ID)
	}
	if got := m.list(); len(got) != 1 {
		t.Errorf("registry holds %d sweeps after re-dispatch, want 1", len(got))
	}
	changed := spec
	changed.Seed = 99
	if _, err := m.submit(changed); err == nil {
		t.Error("label rebind with a different spec accepted, want error")
	}
}

// parentSidecars are sidecars as an earlier daemon wrote them, before the
// spec moved into sweep.Spec — key order included: a coordinator caught
// queued (shards) and a shard sub-sweep caught running (label,
// first_wearer, seed_store_url, presolved with the solved equilibrium).
// The seed-store URL points at a closed port, so recovery also takes the
// scratch-store fallback.
var parentSidecars = map[string]string{
	"s000000": `{
  "id": "s000000",
  "spec": {
    "wearers": 8,
    "seed": 3,
    "dur_seconds": 2,
    "ble_frac": 0.5,
    "cells": 2,
    "feedback": true,
    "block_size": 4,
    "shards": 2
  },
  "status": "queued",
  "records": 0,
  "blocks": 0,
  "bytes": 0
}`,
	"s000001": `{
  "id": "s000001",
  "spec": {
    "wearers": 8,
    "seed": 3,
    "dur_seconds": 2,
    "ble_frac": 0.5,
    "cells": 2,
    "feedback": true,
    "block_size": 4,
    "first_wearer": 4,
    "label": "s000009/shard1",
    "seed_store_url": "http://127.0.0.1:1/api/sweeps/s000009/shards/1/store",
    "presolved": {
      "loads": [
        {
          "cell": 0,
          "ppm": 0
        },
        {
          "cell": 1,
          "ppm": 720375
        }
      ],
      "eq": {
        "table": [
          {
            "cell": 1,
            "ppm": 3350937
          }
        ],
        "iters": [
          {
            "cell": 1,
            "iters": 21
          }
        ],
        "own": [
          0,
          0,
          0,
          1116979
        ]
      }
    }
  },
  "status": "running",
  "records": 0,
  "blocks": 0,
  "bytes": 0
}`,
}

// TestParentSidecarsRecover pins sidecar compatibility: the sidecars
// above recover, run to done with the fingerprints the earlier daemon
// computed for them (the shard's store byte-identical to a sweep.Run of
// its spec), keep their specs verbatim, and the recovered label still
// makes re-dispatch idempotent.
func TestParentSidecarsRecover(t *testing.T) {
	dir := t.TempDir()
	specs := make(map[string]sweepSpec)
	for id, raw := range parentSidecars {
		var st sweepState
		if err := json.Unmarshal([]byte(raw), &st); err != nil {
			t.Fatal(err)
		}
		specs[id] = st.Spec
		if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	m, err := newManager(dir, 3, reg, nil) // the coordinator and its two loopback shards
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(m, reg))
	defer srv.Close()
	m.start(srv.URL)
	defer m.beginDrain()

	for id, fp := range map[string]string{
		"s000000": "c96d1ce1eabade4142aa3959e18773073536ef6929c12c61c80d7ef27cba372f",
		"s000001": "f2a7d92ec5335969960782c6286c0cb092ae4b779f4a1a1079a6b3421dd8591e",
	} {
		st := awaitSweep(t, m, id, statusDone, 60*time.Second)
		if st.Fingerprint != fp {
			t.Errorf("%s: fingerprint %s, want %s", id, st.Fingerprint, fp)
		}
		if !reflect.DeepEqual(st.Spec, specs[id]) {
			t.Errorf("%s: spec %+v after recovery, sidecar held %+v", id, st.Spec, specs[id])
		}
	}
	truth, _ := groundTruthStore(t, specs["s000001"])
	if !bytes.Equal(storeBytes(t, dir, "s000001"), truth) {
		t.Error("recovered shard store differs from a sweep.Run of its spec")
	}
	if st, err := m.submit(specs["s000001"]); err != nil || st.ID != "s000001" {
		t.Errorf("re-dispatch of the recovered label: %s, %v; want s000001 back", st.ID, err)
	}
}
