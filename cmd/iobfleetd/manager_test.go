package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
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

// TestSubmitQueueFullHTTP pins the code a full queue answers: 503, a
// transient refusal, so a coordinator placing a shard on a full backend
// retries elsewhere (a 400 would fail the whole sweep as a bad spec).
func TestSubmitQueueFullHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := newManager(t.TempDir(), 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.queueCap = 1 // runners never start, so one sweep fills the queue
	srv := httptest.NewServer(newMux(m, reg))
	defer srv.Close()

	var codes []int
	for seed := 1; seed <= 2; seed++ {
		spec := fmt.Sprintf(`{"wearers":8,"seed":%d,"dur_seconds":1}`, seed)
		resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != http.StatusAccepted || codes[1] != http.StatusServiceUnavailable {
		t.Errorf("submit codes %v, want [202 503]", codes)
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
		queued, pending := len(r.m.pending), len(r.m.pending)
		r.m.mu.Unlock()
		if queued != n || pending != n {
			t.Errorf("recovered queued=%d pending=%d, want %d each", queued, pending, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("newManager deadlocked recovering more sidecars than the queue cap")
	}
}

// TestDrainQueuedGauge pins what a drain leaves behind: a sweep still
// queued when the drain lands stays at the front of the queue, queued
// in memory, on disk and in the gauge — even for a runner that starts
// only after the drain, which checks the drain flag in the same hold it
// would pop and claim under. (The original bug popped first and
// returned early on the drain without re-queuing, leaking the gauge and
// orphaning the sweep until restart.)
func TestDrainQueuedGauge(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.submit(minimalSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := m.get(st.ID)

	// Drain first, then start the runner pool: the runner loses the race
	// with the drain by construction, and beginDrain waits for it to exit.
	m.beginDrain()
	m.start("")
	m.beginDrain()

	m.mu.Lock()
	pending := slices.Clone(m.pending)
	m.mu.Unlock()
	if len(pending) != 1 || pending[0] != sw {
		t.Errorf("drained sweep not alone at the queue front (pending %d)", len(pending))
	}
	if got := sw.snapshot().Status; got != statusQueued {
		t.Errorf("drained sweep status %q, want %q", got, statusQueued)
	}
	var disk sweepState
	if raw, err := os.ReadFile(filepath.Join(dir, st.ID+".json")); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(raw, &disk); err != nil {
		t.Fatal(err)
	}
	if disk.Status != statusQueued {
		t.Errorf("drained sweep sidecar status %q, want %q", disk.Status, statusQueued)
	}
	if got := metricValue(t, scrape(t, reg), "iobfleetd_sweeps_queued"); got != 1 {
		t.Errorf("queued gauge %v after drain, want 1", got)
	}
}

// checkBooks asserts the books move keeps against the statuses it set:
// every sweep is in pending exactly once if it is queued and never
// otherwise, and the running count matches the running statuses. Once
// settled (no runner left), every sidecar must also decode to its
// sweep's in-memory state and the queued and running gauges must match
// the status counts, running being 0.
func checkBooks(t *testing.T, m *manager, reg *obs.Registry, settled bool) {
	t.Helper()
	m.mu.Lock()
	queued, running := 0, 0
	for id, sw := range m.sweeps {
		sw.mu.Lock()
		st := sw.st
		sw.mu.Unlock()
		in := 0
		for _, p := range m.pending {
			if p == sw {
				in++
			}
		}
		if want := st.Status == statusQueued; in > 1 || (in == 1) != want {
			t.Errorf("%s is %s but sits in pending %d times", id, st.Status, in)
		}
		switch st.Status {
		case statusQueued:
			queued++
		case statusRunning:
			running++
		}
		if !settled {
			continue
		}
		var disk sweepState
		if raw, err := os.ReadFile(filepath.Join(m.dir, id+".json")); err != nil {
			t.Error(err)
		} else if err := json.Unmarshal(raw, &disk); err != nil {
			t.Error(err)
		} else if !reflect.DeepEqual(disk, st) {
			t.Errorf("%s sidecar %+v, in memory %+v", id, disk, st)
		}
	}
	if len(m.pending) != queued || m.running != running {
		t.Errorf("books: pending %d running %d, statuses: queued %d running %d",
			len(m.pending), m.running, queued, running)
	}
	m.mu.Unlock()
	if !settled {
		return
	}
	text := scrape(t, reg)
	if got := metricValue(t, text, "iobfleetd_sweeps_queued"); got != float64(queued) {
		t.Errorf("queued gauge %v, %d sweeps queued", got, queued)
	}
	if got := metricValue(t, text, "iobfleetd_sweeps_running"); got != 0 || running != 0 {
		t.Errorf("running gauge %v with %d sweeps running after the runners left, want 0", got, running)
	}
}

// TestLifecycleInvariants drives every move of the sweep state machine —
// submit, claim, done, cancel from queued, running and interrupted, the
// drain's interrupted park, recovery and label revival — with two
// runners and a seeded subset of sweeps cancelled concurrently, and
// checks the books (checkBooks) mid-flight, after the drain, after a
// restart's recovery and once the restarted daemon has run everything
// to rest. The invariants hold whatever the interleaving, so the test
// asserts nothing about timing.
func TestLifecycleInvariants(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 2, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.start("")
	specs := make([]sweepSpec, n)
	ids := make([]string, n)
	for i := range specs {
		specs[i] = sweepSpec{
			Spec:  sweep.Spec{Wearers: 300, Seed: int64(i), DurSeconds: 10, Workers: 1, BlockSize: 16},
			Label: fmt.Sprintf("lifecycle/%d", i),
		}
		st, err := m.submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	rng := rand.New(rand.NewPCG(15, 1))
	var cancelled []int
	var wg sync.WaitGroup
	for i, id := range ids {
		if rng.IntN(3) != 0 {
			continue
		}
		cancelled = append(cancelled, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.cancel(id); err != nil && !errors.Is(err, errTerminal) {
				t.Errorf("cancel %s: %v", id, err)
			}
		}()
	}
	checkBooks(t, m, reg, false)
	wg.Wait()
	checkBooks(t, m, reg, false)
	m.beginDrain()
	checkBooks(t, m, reg, true)
	// A sweep the drain parked interrupted is still cancellable.
	for i, id := range ids {
		if sw, _ := m.get(id); sw.snapshot().Status == statusInterrupted {
			if _, err := m.cancel(id); err != nil {
				t.Fatal(err)
			}
			cancelled = append(cancelled, i)
			checkBooks(t, m, reg, true)
			break
		}
	}

	// A SIGKILL leaves a running sweep's sidecar saying "running"; mimic
	// one on a sweep the drain left unfinished. Its status belongs to the
	// dead process: recovery must requeue it without touching the books.
	for _, st := range m.list() {
		if st.Status == statusQueued || st.Status == statusInterrupted {
			st.Status = statusRunning
			raw, err := json.Marshal(&st)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, st.ID+".json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	// A restart moves every unfinished sweep back onto the queue, and a
	// resubmitted label revives a cancelled sweep.
	reg2 := obs.NewRegistry()
	m2, err := newManager(dir, 2, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBooks(t, m2, reg2, true)
	if len(cancelled) == 0 {
		t.Fatal("seed cancels no sweep; pick another")
	}
	revived := cancelled[0]
	if _, err := m2.submit(specs[revived]); err != nil {
		t.Fatal(err)
	}
	checkBooks(t, m2, reg2, true)
	m2.start("")
	for i, id := range ids {
		sw, _ := m2.get(id)
		ch := sw.subscribe()
		for ev := range ch {
			if ev.Final {
				break
			}
		}
		sw.unsubscribe(ch)
		want := statusDone
		if i != revived && slices.Contains(cancelled, i) {
			want = statusCancelled
		}
		if got := sw.snapshot().Status; got != want && !(got == statusDone && want == statusCancelled) {
			t.Errorf("%s ended %s, want %s", id, got, want)
		}
	}
	m2.beginDrain()
	checkBooks(t, m2, reg2, true)
}

// TestHealthzDrainAware pins readiness semantics: /healthz answers 200
// only while the daemon accepts work, and flips to 503 the moment it
// drains, in step with the submission endpoint — the probe and the POST
// a coordinator places shards with must agree. (The original bug kept
// /healthz at 200 during drain, so shard dispatch kept selecting dying
// backends.)
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
	// Readiness and behavior must agree: submission refuses alongside
	// the probe.
	spec := `{"wearers":8,"seed":1,"dur_seconds":1}`
	if code := post("/api/sweeps", spec); code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", code)
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
// Sidecars decode leniently, so the since-retired presolved key is
// ignored and the shard solves phase 1 itself. The seed-store URL points
// at a closed port, so recovery also takes the scratch-store fallback.
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
	// The daemon lists its own listener as its one static backend, so
	// the coordinator and its two shards all run here.
	srv := httptest.NewUnstartedServer(nil)
	self := "http://" + srv.Listener.Addr().String()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 3, reg, []string{self})
	if err != nil {
		t.Fatal(err)
	}
	srv.Config.Handler = newMux(m, reg)
	srv.Start()
	defer srv.Close()
	m.start(self)
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

// TestSubmitPresolvedRefused pins the retired presolved key at the other
// door: sidecars decode leniently (TestParentSidecarsRecover), but a
// submission carrying it is an unknown field and bounces with 400 before
// anything is queued.
func TestSubmitPresolvedRefused(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := newManager(t.TempDir(), 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(m, reg))
	defer srv.Close()
	spec := `{"wearers":8,"seed":1,"dur_seconds":1,"cells":2,"first_wearer":4,"presolved":{"loads":[{"cell":1,"ppm":5}]}}`
	resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"presolved\"`) {
		t.Errorf("submit with presolved: %d %s, want 400 naming the unknown field", resp.StatusCode, body)
	}
	if got := m.list(); len(got) != 0 {
		t.Errorf("refused submission left %d sweeps behind", len(got))
	}
}
