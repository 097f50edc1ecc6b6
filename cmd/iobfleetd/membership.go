package main

// The fleet membership layer: the one place a shard can be placed.
// Static -backends entries are permanent members that never expire;
// other backends POST /api/backends to register (and re-POST on a
// heartbeat interval), and the coordinator expires entries that fall
// silent past a TTL. The table lives in memory only: after a
// coordinator restart the static entries come back from the flag and
// dynamic members re-register on their next heartbeat. A coordinator
// whose table holds no live member dispatches nothing and waits.
//
// Expiry is a selection gate, not a kill switch: a shard already
// dispatched to a backend keeps streaming from it for as long as the
// backend answers, even after its membership entry expires — the
// supervisor's host list is sticky, and only NEW dispatch decisions
// consult the live set. That is what keeps a heartbeat hiccup from
// cancelling in-flight work.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"wiban/internal/obs"
)

// member is one row of the membership table. Static members come from
// the -backends flag and never expire; dynamic members arrive over
// POST /api/backends and live for the coordinator's -expire TTL past
// their last heartbeat. expired is bookkeeping so the flip is counted
// exactly once; the entry itself stays in the table, and a later
// heartbeat revives it in place.
type member struct {
	URL      string    `json:"url"`
	Static   bool      `json:"static,omitempty"`
	LastSeen time.Time `json:"last_seen,omitempty"`

	expired bool
}

// memberState is the API view of a member: the table row plus the
// derived liveness the dispatch path gates on.
type memberState struct {
	member
	Live bool `json:"live"`
}

// membership is the coordinator's backend table. All access is guarded
// by mu; liveness is evaluated lazily against now() on every read, so
// there is no sweeper goroutine to leak or race.
type membership struct {
	mu  sync.Mutex
	ttl time.Duration
	now func() time.Time

	entries map[string]*member

	registrations *obs.Counter
	expirations   *obs.Counter
}

const defaultExpiry = 10 * time.Second

// newMembership builds the table with the static -backends entries.
// registrations and expirations count the table's entry and expiry
// events.
func newMembership(static []string, registrations, expirations *obs.Counter) *membership {
	ms := &membership{
		ttl:           defaultExpiry,
		now:           time.Now,
		entries:       make(map[string]*member),
		registrations: registrations,
		expirations:   expirations,
	}
	for _, b := range static {
		ms.entries[b] = &member{URL: b, Static: true}
	}
	return ms
}

// normalizeBackendURL validates and canonicalizes a registration URL:
// absolute http(s), a host, no trailing slash — the exact base-URL form
// dispatch concatenates endpoint paths onto.
func normalizeBackendURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("backend url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("backend url %q: want an absolute http(s) base URL", raw)
	}
	return raw, nil
}

// register upserts a dynamic member (or refreshes a static one). Every
// call stamps LastSeen — registration and heartbeat are the same verb —
// but only a new or revived entry counts as a registration.
func (ms *membership) register(raw string) (memberState, error) {
	u, err := normalizeBackendURL(raw)
	if err != nil {
		return memberState{}, err
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	m, ok := ms.entries[u]
	if !ok {
		m = &member{URL: u}
		ms.entries[u] = m
		ms.registrations.Inc()
	} else if ms.expireLocked(m, now) {
		m.expired = false
		ms.registrations.Inc()
	}
	m.LastSeen = now
	return memberState{member: *m, Live: true}, nil
}

// deregister removes a member — graceful goodbye from a draining
// backend, or an operator pulling a static entry out of rotation for
// the rest of this process's life.
func (ms *membership) deregister(raw string) bool {
	u, err := normalizeBackendURL(raw)
	if err != nil {
		return false
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, ok := ms.entries[u]; !ok {
		return false
	}
	delete(ms.entries, u)
	return true
}

// expireLocked reports whether m is past its TTL, counting the flip to
// expired exactly once. Caller holds mu.
func (ms *membership) expireLocked(m *member, now time.Time) bool {
	if m.Static || now.Sub(m.LastSeen) <= ms.ttl {
		return false
	}
	if !m.expired {
		m.expired = true
		ms.expirations.Inc()
	}
	return true
}

// live returns the selectable backend URLs — static members plus every
// dynamic member inside its TTL — in sorted order, so round-robin
// placement is deterministic for a given fleet.
func (ms *membership) live() []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	var urls []string
	for _, m := range ms.entries {
		if !ms.expireLocked(m, now) {
			urls = append(urls, m.URL)
		}
	}
	sort.Strings(urls)
	return urls
}

// list returns every table row with its derived liveness, sorted by
// URL — the GET /api/backends payload.
func (ms *membership) list() []memberState {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	out := make([]memberState, 0, len(ms.entries))
	for _, m := range ms.entries {
		out = append(out, memberState{member: *m, Live: !ms.expireLocked(m, now)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// counts returns (total entries, live entries) for the membership
// gauges in one lock acquisition.
func (ms *membership) counts() (total, live int) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	for _, m := range ms.entries {
		total++
		if !ms.expireLocked(m, now) {
			live++
		}
	}
	return total, live
}

// heartbeat keeps this daemon registered with one coordinator: an
// immediate POST /api/backends, then one per interval, until stop
// closes — at which point it deregisters best-effort so the
// coordinator stops selecting a backend that is about to drain (its
// 503 would turn a shard away anyway; this just makes goodbye
// explicit). Registration failures are retried on the next tick, and
// the next beat after a coordinator restart puts this daemon back in
// the restarted table.
func heartbeat(client *http.Client, coordinator, self string, interval time.Duration, stop <-chan struct{}) {
	body, _ := json.Marshal(map[string]string{"url": self})
	post := func() {
		resp, err := client.Post(coordinator+"/api/backends", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return
		}
		resp.Body.Close()
	}
	post()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			req, err := http.NewRequest(http.MethodDelete,
				coordinator+"/api/backends?url="+url.QueryEscape(self), nil)
			if err == nil {
				if resp, err := client.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			return
		case <-tick.C:
			post()
		}
	}
}
