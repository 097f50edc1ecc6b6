package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"wiban/internal/obs"
)

// TestMembershipTable drives the membership layer in-process with a
// hand-cranked clock: registration, heartbeat refresh, TTL expiry,
// revival, static permanence and deregistration.
func TestMembershipTable(t *testing.T) {
	ms := newMembership([]string{"http://static:1"}, new(obs.Counter), new(obs.Counter))
	now := time.Unix(1000, 0)
	ms.now = func() time.Time { return now }
	ms.ttl = 10 * time.Second

	if _, err := ms.register("not a url"); err == nil {
		t.Error("garbage URL registered")
	}
	if _, err := ms.register("ftp://nope:1"); err == nil {
		t.Error("non-http scheme registered")
	}
	st, err := ms.register("http://dyn:2/")
	if err != nil {
		t.Fatal(err)
	}
	if st.URL != "http://dyn:2" || !st.Live {
		t.Errorf("registration state %+v, want live with trailing slash stripped", st)
	}

	live := ms.live()
	if len(live) != 2 {
		t.Fatalf("live = %v, want static + dynamic", live)
	}

	// Heartbeats refresh; silence past the TTL expires the dynamic entry
	// but never the static one, and the expired entry stays in the table.
	now = now.Add(9 * time.Second)
	if _, err := ms.register("http://dyn:2"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(9 * time.Second)
	if live = ms.live(); len(live) != 2 {
		t.Errorf("refreshed entry expired early: %v", live)
	}
	now = now.Add(2 * time.Second)
	if live = ms.live(); len(live) != 1 || live[0] != "http://static:1" {
		t.Errorf("after TTL: live=%v, want only the static entry", live)
	}
	for _, m := range ms.list() {
		if m.URL == "http://dyn:2" && m.Live {
			t.Error("expired entry listed as live")
		}
		if m.URL == "http://static:1" && (!m.Live || !m.Static) {
			t.Errorf("static entry degraded: %+v", m)
		}
	}

	// A fresh heartbeat revives the expired entry in place — one table
	// row per address, however many times it blinks.
	if _, err := ms.register("http://dyn:2"); err != nil {
		t.Fatal(err)
	}
	if live = ms.live(); len(live) != 2 {
		t.Errorf("revived entry not live: %v", live)
	}
	if got := ms.list(); len(got) != 2 {
		t.Errorf("table holds %d entries after revival, want 2: %+v", len(got), got)
	}

	if !ms.deregister("http://dyn:2") {
		t.Error("deregister of known entry reported false")
	}
	if ms.deregister("http://dyn:2") {
		t.Error("double deregister reported true")
	}
	if live = ms.live(); len(live) != 1 {
		t.Errorf("deregistered entry still live: %v", live)
	}
	// Deregistering the last member leaves nothing to place a shard on —
	// never a fallback to the coordinator itself.
	if !ms.deregister("http://static:1") {
		t.Error("deregister of the static entry reported false")
	}
	if live = ms.live(); len(live) != 0 {
		t.Errorf("emptied table still lists %v", live)
	}
}

// TestMembershipExpiryKeepsInFlightDispatch is the expiry-vs-dispatch
// race: a backend registers once (no heartbeat loop), a sharded sweep
// is dispatched to it, and its membership entry expires mid-sweep. The
// supervisor's host list is sticky — expiry gates new placement, not
// replication from a host that still answers — so the sweep must finish
// on the "expired" backend, byte-identical, while the live gauge reads
// zero dynamic members. The backend is held stopped (SIGSTOP) from
// dispatch until the entry expires, so the shards are in flight across
// the TTL however fast the sweep runs.
func TestMembershipExpiryKeepsInFlightDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon lifecycle in -short mode")
	}
	backend := startDaemon(t, t.TempDir())
	co := startDaemon(t, t.TempDir(), "-expire", "2s")

	// Manual one-shot registration: POST without a -register heartbeat
	// loop, so the entry is guaranteed to fall silent.
	var reg memberState
	resp, err := postBody(co.base+"/api/backends", fmt.Sprintf(`{"url":%q}`, backend.base), &reg)
	if err != nil || resp != 200 || !reg.Live {
		t.Fatalf("registration: code %d err %v state %+v", resp, err, reg)
	}

	// Each shard computes past the coordinator's 50 ms first poll.
	raw := `{"wearers":2500,"seed":31,"dur_seconds":60,"workers":2,"cells":4,"block_size":64,"shards":2}`
	id := co.submit(raw).ID

	// Freeze the backend once both shards are placed on it. The
	// supervisor's polls then wait on a process that cannot answer (well
	// inside the client timeout), which holds both shards in flight.
	deadline := time.Now().Add(60 * time.Second)
	for metricValue(t, co.metrics(), "iobfleetd_shards_dispatched_total") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("shards not dispatched within 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resume := func() { backend.cmd.Process.Signal(syscall.SIGCONT) }
	t.Cleanup(resume)
	if err := backend.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}

	// The entry must expire while the sweep is still in flight: poll the
	// table until it reads not live, then demand the sweep is not yet
	// terminal — a sweep that beat the TTL tests no race.
	deadline = time.Now().Add(60 * time.Second)
	for {
		var table []memberState
		co.getJSON("/api/backends", &table)
		if len(table) == 1 && !table[0].Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend entry still live 60s after a 2s TTL: %+v", table)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var cur sweepState
	co.getJSON("/api/sweeps/"+id, &cur)
	if cur.terminal() {
		t.Fatalf("sweep finished before the backend's 2s TTL expired: %+v", cur)
	}
	resume()
	done := co.awaitStatus(id, statusDone, 120*time.Second)

	var spec sweepSpec
	mustUnmarshalSpec(t, raw, &spec)
	_, fp := groundTruthStore(t, spec)
	if done.Fingerprint != fp {
		t.Errorf("fingerprint %q after mid-sweep expiry, want %q", done.Fingerprint, fp)
	}
	// The sweep outlived the entry's TTL (checked above): the backend
	// must have expired. Expiry is lazy-on-read, so the first scrape's
	// liveness gauge performs the flip and a second scrape observes the
	// counted transition.
	text := co.metrics()
	if got := metricValue(t, text, "iobfleetd_backends_live"); got != 0 {
		t.Errorf("backends_live %v with the only member silent, want 0", got)
	}
	if got := metricValue(t, co.metrics(), "iobfleetd_backends_expired_total"); got < 1 {
		t.Errorf("backends_expired_total %v, want >= 1 (the sweep outlived the TTL)", got)
	}
	// Expiry must not have counted as a dispatch loss.
	if got := metricValue(t, text, "iobfleetd_shards_dispatched_total"); got != 2 {
		t.Errorf("shards_dispatched_total %v, want exactly 2 (expiry never drops a live host)", got)
	}

	// Re-registration under the same address revives the one entry —
	// no duplicate rows, and the revival is a registration event.
	if code, err := postBody(co.base+"/api/backends", fmt.Sprintf(`{"url":%q}`, backend.base), &reg); err != nil || code != 200 {
		t.Fatalf("re-registration: code %d err %v", code, err)
	}
	var table []memberState
	co.getJSON("/api/backends", &table)
	if len(table) != 1 || !table[0].Live {
		t.Errorf("table after re-registration: %+v, want one live entry", table)
	}
	if got := metricValue(t, co.metrics(), "iobfleetd_backend_registrations_total"); got != 2 {
		t.Errorf("registrations_total %v, want 2 (initial + revival)", got)
	}
}

// TestShardsWaitForAMember pins that the membership table is the only
// place a shard can go: a coordinator with one runner slot and no
// members keeps a sharded sweep running with nothing dispatched and no
// records — it never queues the shards behind itself — until a one-slot
// backend registers, after which the sweep finishes with the
// uninterrupted run's fingerprint.
func TestShardsWaitForAMember(t *testing.T) {
	serve := func() (*manager, *obs.Registry, string) {
		reg := obs.NewRegistry()
		m, err := newManager(t.TempDir(), 1, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(newMux(m, reg))
		t.Cleanup(srv.Close)
		m.start(srv.URL)
		t.Cleanup(m.beginDrain)
		return m, reg, srv.URL
	}
	co, coReg, _ := serve()
	raw := `{"wearers":60,"seed":41,"dur_seconds":5,"cells":4,"block_size":8,"shards":2}`
	var spec sweepSpec
	mustUnmarshalSpec(t, raw, &spec)
	st, err := co.submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Every look at the empty table counts a retry: wait for a few per
	// shard, then the sweep must still be running with nothing placed.
	if !settle(30*time.Second, 5*time.Millisecond, func() bool {
		return metricValue(t, scrape(t, coReg), "iobfleetd_shard_retries_total") >= 4
	}) {
		t.Fatal("shard placement never retried against the empty table")
	}
	if cur, _ := co.get(st.ID); cur.snapshot().Status != statusRunning || cur.snapshot().Records != 0 {
		t.Fatalf("memberless coordinator sweep %+v, want running with 0 records", cur.snapshot())
	}
	if got := metricValue(t, scrape(t, coReg), "iobfleetd_shards_dispatched_total"); got != 0 {
		t.Fatalf("shards_dispatched_total %v with no members, want 0", got)
	}

	_, _, backend := serve()
	if _, err := co.members.register(backend); err != nil {
		t.Fatal(err)
	}
	done := awaitSweep(t, co, st.ID, statusDone, 60*time.Second)
	if _, fp := groundTruthStore(t, spec); done.Fingerprint != fp {
		t.Errorf("fingerprint %q after a member registered, want %q", done.Fingerprint, fp)
	}
}

// TestCoordinatorRestartDynamicFleet kills a coordinator whose whole
// fleet joined by heartbeat (no -backends) mid-sweep and restarts it on
// the same address and data dir. The restarted table starts empty, so
// the recovered sharded sweep waits until the next heartbeats
// re-register both backends; it must then finish byte-identical to an
// uninterrupted single-writer run.
func TestCoordinatorRestartDynamicFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon kill lifecycle in -short mode")
	}
	coDir, coAddr := t.TempDir(), freePort(t)
	co := startDaemon(t, coDir, "-listen", coAddr)
	for i := 0; i < 2; i++ {
		startDaemon(t, t.TempDir(), "-register", co.base, "-heartbeat", "200ms")
	}
	awaitLiveBackends(t, co, 2, 30*time.Second)

	raw := `{"wearers":6000,"seed":61,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"block_size":64,"shards":2}`
	id := co.submit(raw).ID
	awaitMidRun(t, co, id, 90*time.Second)
	co.cmd.Process.Signal(syscall.SIGKILL)
	co.cmd.Wait()

	co = startDaemon(t, coDir, "-listen", coAddr)
	done := co.awaitStatus(id, statusDone, 300*time.Second)
	var spec sweepSpec
	mustUnmarshalSpec(t, raw, &spec)
	truth, fp := groundTruthStore(t, spec)
	if done.Fingerprint != fp {
		t.Errorf("post-restart fingerprint %q != uninterrupted %q", done.Fingerprint, fp)
	}
	if !bytes.Equal(storeBytes(t, coDir, id), truth) {
		t.Error("post-restart merged store differs byte-for-byte from an uninterrupted single-writer run")
	}
	// The restarted table was rebuilt from heartbeats alone.
	if got := metricValue(t, co.metrics(), "iobfleetd_backend_registrations_total"); got != 2 {
		t.Errorf("registrations_total %v on the restarted coordinator, want 2", got)
	}
}

// postBody POSTs a JSON body and decodes the response when out != nil.
func postBody(url, body string, out any) (int, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == 200 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
}
