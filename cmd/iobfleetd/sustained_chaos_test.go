package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// chaosEnvInt reads an integer knob for the sustained chaos harness,
// so CI can shrink the run (fewer sweeps, shorter window) without a
// separate test.
func chaosEnvInt(t *testing.T, name string, def int) int {
	v := os.Getenv(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		t.Fatalf("%s=%q: want a positive integer", name, v)
	}
	return n
}

// TestSustainedChaos is the robustness acceptance gate: a stream of
// sweeps across a dynamically-registered fleet while a seeded adversary
// SIGKILLs, drains, restarts, spawns and deregisters backends and
// cancels sweeps at random. Whatever the schedule, the invariants must
// hold: no sweep fails, every sweep that completes is byte-identical to
// an uninterrupted single-writer run of its spec, cancelled sweeps
// leave no partial stores behind, and every gauge — queue slots,
// running slots, goroutines — settles back to quiescence.
//
// The schedule is reproducible: IOBFLEETD_CHAOS_SEED pins the decision
// sequence (the journal logs it on every run), IOBFLEETD_CHAOS_SWEEPS
// and IOBFLEETD_CHAOS_SECONDS scale the load and the chaos window.
func TestSustainedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained multi-daemon chaos in -short mode")
	}
	seed := int64(chaosEnvInt(t, "IOBFLEETD_CHAOS_SEED", 1))
	nsweeps := chaosEnvInt(t, "IOBFLEETD_CHAOS_SWEEPS", 12)
	window := time.Duration(chaosEnvInt(t, "IOBFLEETD_CHAOS_SECONDS", 10)) * time.Second

	coDir := t.TempDir()
	co := startDaemon(t, coDir, "-sweeps", "4", "-steal-after", "2s", "-expire", "2s")
	baseGoroutines := metricValue(t, co.metrics(), "iobfleetd_goroutines")

	type backend struct {
		addr, dir string
		d         *daemon // nil while dead
	}
	var pool []*backend
	spawn := func(b *backend) {
		b.d = startDaemon(t, b.dir, "-listen", b.addr,
			"-register", co.base, "-heartbeat", "300ms", "-retain", "8", "-sweeps", "3")
	}
	for i := 0; i < 2; i++ {
		b := &backend{addr: freePort(t), dir: t.TempDir()}
		spawn(b)
		pool = append(pool, b)
	}
	awaitLiveBackends(t, co, 2, 30*time.Second)

	// Four spec shapes: sharded first-order, sharded feedback, sharded
	// series, and a plain unsharded sweep that runs on the coordinator
	// itself. Same-shape sweeps share a spec, so one ground-truth run
	// vouches for all of them.
	shapes := []string{
		`{"wearers":9000,"seed":41,"dur_seconds":20,"workers":2,"ble_frac":0.5,"cells":8,"block_size":64,"shards":3}`,
		`{"wearers":9000,"seed":42,"dur_seconds":20,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"block_size":64,"shards":3}`,
		`{"wearers":9000,"seed":43,"dur_seconds":20,"workers":2,"ble_frac":0.5,"cells":8,"series_seconds":8,"block_size":64,"shards":3}`,
		`{"wearers":6000,"seed":44,"dur_seconds":15,"workers":2,"ble_frac":0.5,"block_size":64}`,
	}
	shapeOf := map[string]int{}
	var ids []string
	for i := 0; i < nsweeps; i++ {
		st := co.submit(shapes[i%len(shapes)])
		ids = append(ids, st.ID)
		shapeOf[st.ID] = i % len(shapes)
	}

	c := newChaos(seed)
	actions := []chaosAction{
		{Name: "kill", Weight: 3},
		{Name: "restart", Weight: 3},
		{Name: "drain", Weight: 1},
		{Name: "spawn", Weight: 1},
		{Name: "cancel", Weight: 2},
	}
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		time.Sleep(c.Between(300*time.Millisecond, 1200*time.Millisecond))
		switch act := c.Pick(actions).Name; act {
		case "kill", "drain":
			var alive []*backend
			for _, b := range pool {
				if b.d != nil {
					alive = append(alive, b)
				}
			}
			if len(alive) == 0 {
				c.Log("%s: nothing alive to fault", act)
				continue
			}
			b := alive[c.Intn(len(alive))]
			if act == "kill" {
				b.d.cmd.Process.Signal(syscall.SIGKILL)
			} else {
				b.d.cmd.Process.Signal(syscall.SIGTERM) // graceful: drains and deregisters
			}
			b.d.cmd.Wait()
			b.d = nil
			c.Log("%s %s", act, b.addr)
		case "restart":
			var dead []*backend
			for _, b := range pool {
				if b.d == nil {
					dead = append(dead, b)
				}
			}
			if len(dead) == 0 {
				c.Log("restart: nothing dead")
				continue
			}
			b := dead[c.Intn(len(dead))]
			spawn(b) // same address, same data dir: recovery + re-registration
			c.Log("restart %s", b.addr)
		case "spawn":
			b := &backend{addr: freePort(t), dir: t.TempDir()}
			spawn(b)
			pool = append(pool, b)
			c.Log("spawn %s", b.addr)
		case "cancel":
			id := ids[c.Intn(len(ids))]
			req, _ := http.NewRequest(http.MethodDelete, co.base+"/api/sweeps/"+id, nil)
			code := 0
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
				code = resp.StatusCode
			}
			c.Log("cancel %s -> %d", id, code)
		}
	}
	// Heal the fleet so the backlog can finish.
	for _, b := range pool {
		if b.d == nil {
			spawn(b)
			c.Log("heal-restart %s", b.addr)
		}
	}
	t.Logf("chaos journal (seed %d):\n%s", c.Seed(), c.Journal())

	// Every sweep settles terminally...
	finals := map[string]sweepState{}
	if !settle(360*time.Second, 250*time.Millisecond, func() bool {
		var all []sweepState
		co.getJSON("/api/sweeps", &all)
		n := 0
		for _, st := range all {
			if st.terminal() {
				finals[st.ID] = st
				n++
			}
		}
		return n == len(all)
	}) {
		var all []sweepState
		co.getJSON("/api/sweeps", &all)
		t.Fatalf("sweeps never settled terminally: %+v", all)
	}

	// ...none by failure, and every completed one byte-identical to the
	// uninterrupted single-writer ground truth of its shape.
	truthBytes := map[int][]byte{}
	truthFP := map[int]string{}
	done := 0
	for _, id := range ids {
		st := finals[id]
		switch st.Status {
		case statusFailed:
			t.Errorf("sweep %s failed under chaos: %s", id, st.Error)
		case statusDone:
			done++
			shape := shapeOf[id]
			if _, ok := truthFP[shape]; !ok {
				var spec sweepSpec
				mustUnmarshalSpec(t, shapes[shape], &spec)
				truthBytes[shape], truthFP[shape] = groundTruthStore(t, spec)
			}
			if st.Fingerprint != truthFP[shape] {
				t.Errorf("sweep %s fingerprint %q != ground truth %q", id, st.Fingerprint, truthFP[shape])
			}
			if !bytes.Equal(storeBytes(t, coDir, id), truthBytes[shape]) {
				t.Errorf("sweep %s store differs byte-for-byte from ground truth", id)
			}
		}
	}
	t.Logf("%d/%d sweeps completed, %d cancelled", done, len(ids), len(ids)-done)

	// No partial-store leaks on the coordinator...
	if !settle(30*time.Second, 250*time.Millisecond, func() bool {
		left, _ := filepath.Glob(filepath.Join(coDir, "*.shard*"))
		return len(left) == 0
	}) {
		left, _ := filepath.Glob(filepath.Join(coDir, "*.shard*"))
		t.Errorf("partial shard stores leaked: %v", left)
	}

	// ...no queue-slot leaks anywhere (orphaned sub-sweeps a restarted
	// backend recovered are allowed to run out; they must then settle)...
	quiescent := func(d *daemon) bool {
		text := d.metrics()
		return metricValue(t, text, "iobfleetd_sweeps_queued") == 0 &&
			metricValue(t, text, "iobfleetd_sweeps_running") == 0
	}
	if !settle(180*time.Second, 500*time.Millisecond, func() bool {
		if !quiescent(co) {
			return false
		}
		for _, b := range pool {
			if b.d != nil && !quiescent(b.d) {
				return false
			}
		}
		return true
	}) {
		t.Error("queued/running gauges never settled to zero across the fleet")
	}

	// ...and no goroutine leaks on the coordinator: every supervisor,
	// progress stream and runner hand-off wound down.
	if !settle(60*time.Second, 500*time.Millisecond, func() bool {
		return metricValue(t, co.metrics(), "iobfleetd_goroutines") <= baseGoroutines+32
	}) {
		t.Errorf("coordinator goroutines %v never settled near baseline %v",
			metricValue(t, co.metrics(), "iobfleetd_goroutines"), baseGoroutines)
	}
}
