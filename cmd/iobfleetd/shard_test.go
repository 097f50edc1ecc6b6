package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"wiban/internal/sweep"
	"wiban/internal/telemetry"
)

// freePort reserves an address a daemon can be restarted on: unlike
// -listen :0, a killed backend's replacement must come back at the URL
// the coordinator's -backends list already names.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// storeBytes reads a sweep's telemetry store off a daemon's data dir.
func storeBytes(t *testing.T, dir, id string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, id+".wtl"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// groundTruth runs spec uninterrupted in this process through sweep.Run,
// the run path both front ends share, writing a single-writer store to
// path ("" for none), and returns the run's fingerprint — the one a
// sharded (or chaos-ridden) daemon run must reproduce.
func groundTruth(t *testing.T, spec sweepSpec, path string) string {
	t.Helper()
	f, meta, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sweep.Open(f, meta, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s.Agg.Report().Fingerprint()
}

// groundTruthStore is groundTruth with a store: it returns the store's
// bytes, which a daemon run must reproduce bit for bit, plus the
// fingerprint.
func groundTruthStore(t *testing.T, spec sweepSpec) ([]byte, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "truth.wtl")
	fp := groundTruth(t, spec, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, fp
}

// sameQueryStats compares two stores' QueryStore aggregates — the same
// numbers iobtrace query prints — over a few representative queries.
func sameQueryStats(t *testing.T, mergedPath, singlePath string) {
	t.Helper()
	for _, q := range []telemetry.Query{
		{Metric: "charge", Cell: -1, Node: -1},
		{Metric: "queue", FromMS: 2000, Cell: 2, Node: -1},
		{Metric: "per", Cell: -1, Node: 0},
	} {
		m, err := telemetry.QueryStore(mergedPath, q)
		if err != nil {
			t.Fatalf("query merged store: %v", err)
		}
		s, err := telemetry.QueryStore(singlePath, q)
		if err != nil {
			t.Fatalf("query single store: %v", err)
		}
		if m.Points != s.Points || m.Gaps != s.Gaps || m.Sum != s.Sum ||
			m.Min != s.Min || m.Max != s.Max || m.Percentile(100) != s.Percentile(100) {
			t.Errorf("query %+v diverged: merged {pts=%d gaps=%d sum=%v} vs single {pts=%d gaps=%d sum=%v}",
				q, m.Points, m.Gaps, m.Sum, s.Points, s.Gaps, s.Sum)
		}
	}
}

// TestShardedFingerprint is the acceptance gate for shard dispatch: a
// sweep split 3 ways across two remote backends must merge into a store
// bit-identical — fingerprint AND bytes — to the same spec run
// unsharded in one process, in both first-order and feedback coupling.
func TestShardedFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon lifecycle in -short mode")
	}
	b0 := startDaemon(t, t.TempDir())
	b1 := startDaemon(t, t.TempDir())
	coDir := t.TempDir()
	co := startDaemon(t, coDir, "-backends", b0.base+","+b1.base)

	cases := []struct {
		name    string
		sharded string // shards:3 coordinator spec
		single  string // identical spec, no shards
	}{
		{
			"first-order",
			`{"wearers":120,"seed":11,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"block_size":16,"shards":3}`,
			`{"wearers":120,"seed":11,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"block_size":16}`,
		},
		{
			"feedback",
			`{"wearers":120,"seed":12,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"block_size":16,"shards":3}`,
			`{"wearers":120,"seed":12,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"block_size":16}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sharded := co.submit(tc.sharded)
			done := co.awaitStatus(sharded.ID, statusDone, 120*time.Second)

			// Ground truth 1: an uninterrupted in-process run.
			var spec sweepSpec
			mustUnmarshalSpec(t, tc.sharded, &spec)
			if fp := groundTruth(t, spec, ""); done.Fingerprint != fp {
				t.Errorf("sharded fingerprint %q != in-process %q", done.Fingerprint, fp)
			}
			if done.Records != spec.Wearers {
				t.Errorf("sharded records %d, want %d", done.Records, spec.Wearers)
			}

			// Ground truth 2: the same spec unsharded through the daemon —
			// the merged store must be byte-identical, trailing index and all.
			single := co.submit(tc.single)
			singleDone := co.awaitStatus(single.ID, statusDone, 120*time.Second)
			if singleDone.Fingerprint != done.Fingerprint {
				t.Errorf("unsharded daemon fingerprint %q != sharded %q", singleDone.Fingerprint, done.Fingerprint)
			}
			if !bytes.Equal(storeBytes(t, coDir, sharded.ID), storeBytes(t, coDir, single.ID)) {
				t.Error("merged shard store differs byte-for-byte from the single-process store")
			}

			// Shard partials must not outlive the merge.
			leftovers, _ := filepath.Glob(filepath.Join(coDir, sharded.ID+".shard*"))
			if len(leftovers) != 0 {
				t.Errorf("shard partials left after merge: %v", leftovers)
			}
		})
	}

	// Each case dispatched 3 shards across the two backends.
	if got := metricValue(t, co.metrics(), "iobfleetd_shards_dispatched_total"); got < 6 {
		t.Errorf("shards_dispatched_total %v, want >= 6", got)
	}
	if got := metricValue(t, co.metrics(), "iobfleetd_shard_fetch_bytes_total"); got <= 0 {
		t.Errorf("shard_fetch_bytes_total %v, want > 0", got)
	}
}

// TestShardedSeriesFingerprint is the acceptance gate for sharded
// series sweeps: a -series sweep split 3 ways across two backends must
// merge into a store byte-identical — fingerprint, samples, trailing
// index and all — to an uninterrupted single-writer run AND to the same
// spec run unsharded through a single backend, in both coupling modes,
// with QueryStore (the aggregation path iobtrace query drives) reading
// identical numbers off the merged and single-backend stores.
func TestShardedSeriesFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon lifecycle in -short mode")
	}
	b0dir := t.TempDir()
	b0 := startDaemon(t, b0dir)
	b1 := startDaemon(t, t.TempDir())
	coDir := t.TempDir()
	co := startDaemon(t, coDir, "-backends", b0.base+","+b1.base)

	cases := []struct {
		name    string
		sharded string // shards:3 coordinator spec with series sampling on
		single  string // identical spec, no shards
	}{
		{
			"first-order",
			`{"wearers":120,"seed":14,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"series_seconds":2,"block_size":16,"shards":3}`,
			`{"wearers":120,"seed":14,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"series_seconds":2,"block_size":16}`,
		},
		{
			"feedback",
			`{"wearers":120,"seed":15,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"series_seconds":2,"block_size":16,"shards":3}`,
			`{"wearers":120,"seed":15,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"series_seconds":2,"block_size":16}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sharded := co.submit(tc.sharded)
			done := co.awaitStatus(sharded.ID, statusDone, 120*time.Second)

			// Ground truth 1: an uninterrupted in-process single-writer store.
			var spec sweepSpec
			mustUnmarshalSpec(t, tc.sharded, &spec)
			truth, fp := groundTruthStore(t, spec)
			if done.Fingerprint != fp {
				t.Errorf("sharded series fingerprint %q != in-process %q", done.Fingerprint, fp)
			}
			if done.Records != spec.Wearers {
				t.Errorf("sharded records %d, want %d", done.Records, spec.Wearers)
			}
			merged := storeBytes(t, coDir, sharded.ID)
			if !bytes.Equal(merged, truth) {
				t.Errorf("merged series store differs byte-for-byte from the single-writer store (%d vs %d bytes)",
					len(merged), len(truth))
			}

			// Ground truth 2: the same spec unsharded on one backend — the
			// stores must match byte-for-byte and query identically.
			single := b0.submit(tc.single)
			singleDone := b0.awaitStatus(single.ID, statusDone, 120*time.Second)
			if singleDone.Fingerprint != done.Fingerprint {
				t.Errorf("unsharded daemon fingerprint %q != sharded %q", singleDone.Fingerprint, done.Fingerprint)
			}
			if !bytes.Equal(merged, storeBytes(t, b0dir, single.ID)) {
				t.Error("merged shard store differs byte-for-byte from the single-backend store")
			}
			sameQueryStats(t, filepath.Join(coDir, sharded.ID+".wtl"), filepath.Join(b0dir, single.ID+".wtl"))

			// Shard partials must not outlive the merge.
			leftovers, _ := filepath.Glob(filepath.Join(coDir, sharded.ID+".shard*"))
			if len(leftovers) != 0 {
				t.Errorf("shard partials left after merge: %v", leftovers)
			}
		})
	}
}

// TestShardedLoopback covers a coordinator that lists its own URL in
// -backends: it ships its shards to itself over HTTP like to any other
// member, which needs spare runner slots (the coordinator occupies one
// while its shards run).
func TestShardedLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon lifecycle in -short mode")
	}
	addr := freePort(t)
	d := startDaemon(t, t.TempDir(), "-sweeps", "3", "-listen", addr, "-backends", "http://"+addr)
	raw := `{"wearers":90,"seed":13,"dur_seconds":10,"workers":2,"ble_frac":1,"cells":6,"block_size":16,"shards":2}`
	done := d.awaitStatus(d.submit(raw).ID, statusDone, 120*time.Second)

	var spec sweepSpec
	mustUnmarshalSpec(t, raw, &spec)
	if fp := groundTruth(t, spec, ""); done.Fingerprint != fp {
		t.Errorf("loopback sharded fingerprint %q != in-process %q", done.Fingerprint, fp)
	}
	if done.Records != spec.Wearers {
		t.Errorf("records %d, want %d", done.Records, spec.Wearers)
	}
}

// TestShardedChaosKillResume is the fault-model acceptance gate: one
// shard backend SIGKILLed mid-sweep (no drain, no warning) and brought
// back on the same address and data directory. The coordinator must
// ride it out — re-dispatching the lost shards to the survivor (which
// seed-pulls the partial replica) or to the restarted backend (which
// resumes its recovered sweep by label) — and still merge a store
// byte-identical, fingerprint included, to an uninterrupted
// single-process run. Both coupling modes, because they exercise
// different dispatch rounds; plus a series sweep, because a kill can
// tear a replicated record+series pair mid-frame and the recovery scan
// must discard the torn pair on both sides of the replication.
func TestShardedChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/restart lifecycle in -short mode")
	}
	cases := []struct {
		name string
		spec string
	}{
		{"first-order", `{"wearers":6000,"seed":21,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"block_size":64,"shards":3}`},
		{"feedback", `{"wearers":6000,"seed":22,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"feedback":true,"max_iters":64,"tol_ppm":200,"block_size":64,"shards":3}`},
		{"series", `{"wearers":6000,"seed":23,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"series_seconds":10,"block_size":64,"shards":3}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b0dir, b0addr := t.TempDir(), freePort(t)
			b0 := startDaemon(t, b0dir, "-listen", b0addr)
			b1 := startDaemon(t, t.TempDir())
			coDir := t.TempDir()
			co := startDaemon(t, coDir, "-backends", b0.base+","+b1.base)

			id := co.submit(tc.spec).ID

			// Kill once the sweep is mid-flight with real replicated
			// progress: running, and at least one shard block fetched back.
			deadline := time.Now().Add(90 * time.Second)
			for {
				var st sweepState
				co.getJSON("/api/sweeps/"+id, &st)
				if st.terminal() {
					t.Fatalf("sweep finished before the kill: %+v (grow the spec)", st)
				}
				if st.Status == statusRunning && st.Records >= 64 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("sweep never reached mid-run state with replicated progress")
				}
				time.Sleep(5 * time.Millisecond)
			}
			b0.cmd.Process.Signal(syscall.SIGKILL)
			b0.cmd.Wait() // no exit-code claim: SIGKILL is not graceful

			// Resurrect the backend on the same address and data dir — the
			// URL the coordinator's backend list still names.
			startDaemon(t, b0dir, "-listen", b0addr)

			done := co.awaitStatus(id, statusDone, 300*time.Second)
			var spec sweepSpec
			mustUnmarshalSpec(t, tc.spec, &spec)
			truth, fp := groundTruthStore(t, spec)
			if done.Fingerprint != fp {
				t.Errorf("post-chaos fingerprint %q != uninterrupted %q", done.Fingerprint, fp)
			}
			if done.Records != spec.Wearers {
				t.Errorf("records %d, want %d", done.Records, spec.Wearers)
			}
			if !bytes.Equal(storeBytes(t, coDir, id), truth) {
				t.Error("post-chaos merged store differs byte-for-byte from an uninterrupted single-writer run")
			}
			// The loss must have been visible to the retry machinery.
			if got := metricValue(t, co.metrics(), "iobfleetd_shard_retries_total"); got <= 0 {
				t.Errorf("shard_retries_total %v after a backend kill, want > 0", got)
			}
		})
	}
}
