package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wiban/internal/obs"
)

// TestMembershipTable drives the membership layer in-process with a
// hand-cranked clock: registration, heartbeat refresh, TTL expiry,
// revival, static permanence, deregistration, and persistence across a
// (simulated) coordinator restart.
func TestMembershipTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "backends.json")
	ms, err := newMembership(path, []string{"http://static:1"}, new(obs.Counter), new(obs.Counter))
	if err != nil {
		t.Fatal(err)
	}
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

	live, any := ms.live()
	if !any || len(live) != 2 {
		t.Fatalf("live = %v (any %v), want static + dynamic", live, any)
	}

	// Heartbeats refresh; silence past the TTL expires the dynamic entry
	// but never the static one, and the expired entry stays in the table
	// (any=true) so dispatch waits instead of falling back to loopback.
	now = now.Add(9 * time.Second)
	if _, err := ms.register("http://dyn:2"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(9 * time.Second)
	if live, _ = ms.live(); len(live) != 2 {
		t.Errorf("refreshed entry expired early: %v", live)
	}
	now = now.Add(2 * time.Second)
	live, any = ms.live()
	if len(live) != 1 || live[0] != "http://static:1" || !any {
		t.Errorf("after TTL: live=%v any=%v, want only the static entry and any=true", live, any)
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
	if live, _ = ms.live(); len(live) != 2 {
		t.Errorf("revived entry not live: %v", live)
	}
	if got := ms.list(); len(got) != 2 {
		t.Errorf("table holds %d entries after revival, want 2: %+v", len(got), got)
	}

	// Persistence: a new table on the same path reloads the dynamic
	// entry (static entries come from flags, not the file).
	ms2, err := newMembership(path, nil, new(obs.Counter), new(obs.Counter))
	if err != nil {
		t.Fatal(err)
	}
	ms2.now = ms.now
	ms2.ttl = ms.ttl
	if live, any = ms2.live(); len(live) != 1 || live[0] != "http://dyn:2" || !any {
		t.Errorf("reloaded table live=%v any=%v, want the persisted dynamic entry", live, any)
	}

	if !ms.deregister("http://dyn:2") {
		t.Error("deregister of known entry reported false")
	}
	if ms.deregister("http://dyn:2") {
		t.Error("double deregister reported true")
	}
	if live, _ = ms.live(); len(live) != 1 {
		t.Errorf("deregistered entry still live: %v", live)
	}
}

// TestMembershipExpiryKeepsInFlightDispatch is the expiry-vs-dispatch
// race: a backend registers once (no heartbeat loop), a sharded sweep
// is dispatched to it, and its membership entry expires mid-sweep. The
// supervisor's host list is sticky — expiry gates new placement, not
// replication from a host that still answers — so the sweep must finish
// on the "expired" backend, byte-identical, while the live gauge reads
// zero dynamic members.
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

	raw := `{"wearers":25000,"seed":31,"dur_seconds":100,"workers":2,"cells":4,"block_size":64,"shards":2}`
	id := co.submit(raw).ID

	// The entry must expire while the sweep is still in flight: poll the
	// table until it reads not live, then demand the sweep is not yet
	// terminal — a sweep that beat the TTL tests no race.
	deadline := time.Now().Add(60 * time.Second)
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
		t.Fatalf("sweep finished before the backend's 2s TTL expired: %+v (grow the spec)", cur)
	}
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
