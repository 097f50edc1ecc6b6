package main

// The coordinator half of the shard protocol. A sweep submitted with a
// shards field splits (sweep.Spec.Split) into contiguous wearer-range
// sub-sweeps dispatched to backend daemons (-backends, or this daemon
// itself) over the ordinary HTTP API. A coupled shard runs phase 1 over
// the whole population itself, as an unsharded or resumed run does, so
// coupled and uncoupled sweeps dispatch alike. This file is the
// transport. Shard stores replicate back block by block as they
// commit and merge into one store bit-identical to a single-process
// run. Series sampling (series_seconds) rides the same protocol
// unchanged: each backend commits record+series frame pairs in one
// write, so the committed-prefix replication boundary
// (X-Committed-Offset) always sits after a complete pair, and every
// writer cuts blocks on the absolute wearer grid, so
// telemetry.MergeShards copies each verified pair that lies on the
// merged grid and re-encodes only the blocks at an off-grid seam — the
// merged series store, trailing query index included, is
// byte-identical too.
//
// Fault model: a backend lost mid-shard is re-dispatched — to itself
// after a restart (the label finds the recovered sweep, which resumes
// from its local checkpoint) or to a replacement backend (which pulls the
// coordinator's partial copy as its seed store). Either way the shard's
// byte stream continues exactly where replication stopped, because every
// backend executing a shard writes the identical byte sequence. The
// coordinator's partial copy is always a header plus whole CRC-valid
// frames (telemetry.ValidPrefix): fetchShard checks every append, and
// prepPartial cuts a torn tail off before replication resumes.
//
// That same determinism licenses work-stealing: a shard whose committed
// progress stalls past -steal-after gets a speculative second copy on
// another live backend. Both copies write the identical byte stream, so
// the supervisor replicates from whichever answers, the first copy to
// reach committed-complete wins, and the loser is cancelled (DELETE) —
// the merged store cannot tell the difference. Backends come from the
// live membership table (static -backends entries plus dynamically
// registered daemons), gated on a drain-aware /healthz probe at
// selection time.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"wiban/internal/fleet"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// shardPollInterval paces the supervisor's status/fetch loop against a
// healthy backend; retries after a backend error back off separately.
const shardPollInterval = 50 * time.Millisecond

func (m *manager) storePath(id string) string { return filepath.Join(m.dir, id+".wtl") }

func (m *manager) shardPath(id string, k int) string {
	return filepath.Join(m.dir, fmt.Sprintf("%s.shard%d.wtl", id, k))
}

// backendFor is shard k's dispatch target on the given attempt: shards
// spread round-robin over the live membership (sorted, so placement is
// deterministic for a given fleet) and rotate on failure. With no
// membership entries at all every shard loops back to this daemon
// itself; with entries known but none currently live it returns "" and
// the caller waits for a heartbeat — a fleet that is momentarily
// all-dead must not silently collapse into loopback self-dispatch.
func (m *manager) backendFor(k, attempt int) string {
	live, any := m.members.live()
	if len(live) == 0 {
		if any {
			return ""
		}
		return m.selfBase
	}
	return live[(k+attempt)%len(live)]
}

// healthy probes a backend's readiness. A draining backend answers 503
// (it would refuse the submission anyway), so selection skips it.
func (m *manager) healthy(base string) bool {
	resp, err := m.client.Get(base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// pause sleeps for d without outliving the sweep's context — a pending
// backoff timer must never delay a drain or a cancellation.
func pause(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// backoffDelay is the retry pacing after a backend error: exponential
// from 50ms to a 500ms ceiling, jittered uniformly over [cap/2, cap) so
// a fleet of supervisors losing the same backend re-probes staggered
// instead of in lockstep.
func backoffDelay(attempt int) time.Duration {
	d := 50 * time.Millisecond
	for i := 0; i < attempt && d < 500*time.Millisecond; i++ {
		d *= 2
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d/2 + rand.N(d/2)
}

// httpStatusError is a non-2xx backend answer, kept typed so dispatch can
// tell a permanent rejection (a 400 is deterministic — the same spec will
// be rejected again) from a transient one worth retrying elsewhere.
type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

func permanent(err error) bool {
	var se *httpStatusError
	return errors.As(err, &se) && se.code == http.StatusBadRequest
}

func (m *manager) postJSON(url string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := m.client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return &httpStatusError{resp.StatusCode, strings.TrimSpace(string(body))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// getJSON fetches and decodes one API object, also reporting the
// responding daemon's X-Iobfleetd-Instance nonce ("" when absent).
func (m *manager) getJSON(url string, out any) (string, error) {
	resp, err := m.client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	inst := resp.Header.Get("X-Iobfleetd-Instance")
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return inst, err
	}
	if resp.StatusCode != http.StatusOK {
		return inst, &httpStatusError{resp.StatusCode, strings.TrimSpace(string(body))}
	}
	return inst, json.Unmarshal(body, out)
}

// runSharded executes a coordinator sweep: Split, then the shard
// sub-sweeps with their stores replicated back as they commit, then the
// merge into one full-population store. The merged store, its
// fingerprint and its trailing index are bit-identical to a
// single-process run of the same spec: every shard computes the one
// full-population phase 1 itself, phase-2 records are pure functions of
// (seed, wearer, phase 1), and shard writers cut blocks on the same
// absolute grid as the merged Writer: the merge copies every verified
// record+series pair on that grid unchanged and re-encodes the seam
// blocks through the Writer (telemetry.MergeShards). A failed merge
// removes its partial output (Writer.Discard), so the shard partials on
// disk stay the only recovery state.
func (m *manager) runSharded(ctx context.Context, sw *job, spec sweepSpec, storePath string) {
	start := time.Now()
	subs, err := spec.Split(spec.Shards)
	if err != nil {
		m.finish(sw, err)
		return
	}

	// Parent progress is the sum of the shards' committed record counts,
	// re-published whenever any supervisor learns a new figure. Blocks and
	// bytes stay 0 until the merge — they describe the merged store.
	counts := make([]int, len(subs))
	var cmu sync.Mutex
	progress := func(k, records int) {
		cmu.Lock()
		counts[k] = records
		total := 0
		for _, c := range counts {
			total += c
		}
		cmu.Unlock()
		sw.mu.Lock()
		if total != sw.st.Records {
			sw.st.Records = total
			sw.publish(false)
		}
		sw.mu.Unlock()
	}

	paths := make([]string, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for k := range subs {
		paths[k] = m.shardPath(sw.st.ID, k)
		sub := sweepSpec{
			Spec:         subs[k],
			Label:        sw.st.ID + "/shard" + strconv.Itoa(k),
			SeedStoreURL: fmt.Sprintf("%s/api/sweeps/%s/shards/%d/store", m.selfBase, sw.st.ID, k),
		}
		wg.Add(1)
		go func(k int, sub sweepSpec) {
			defer wg.Done()
			errs[k] = m.superviseShard(ctx, sub, k, paths[k], progress)
		}(k, sub)
	}
	wg.Wait()

	removePartials := func() {
		for _, p := range paths {
			os.Remove(p)
			os.Remove(telemetry.CheckpointPath(p))
		}
	}
	if err := worst(errs); err != nil {
		// Failed and cancelled are terminal and never resumed: the shard
		// partials are garbage. Interrupted keeps them on disk: the
		// restarted coordinator re-dispatches by label and resumes
		// replication exactly where it stopped — unless a DELETE arrived
		// during the drain and the sweep parked cancelled after all.
		if m.finish(sw, err) != statusInterrupted {
			removePartials()
		}
		return
	}

	agg := fleet.NewStreamAggregator(units.Duration(spec.DurSeconds))
	blocks, size, err := telemetry.MergeShards(storePath, paths, agg.Consume)
	if err != nil {
		m.finish(sw, err)
		return
	}
	m.metrics.blocksWritten.Add(float64(blocks))
	m.metrics.bytesWritten.Add(float64(size))
	m.metrics.sweepSeconds.Observe(time.Since(start).Seconds())
	sw.mu.Lock()
	sw.st.Fingerprint = agg.Report().Fingerprint()
	sw.st.Records = agg.Wearers()
	sw.st.Blocks = blocks
	sw.st.Bytes = size
	sw.mu.Unlock()
	m.finish(sw, nil)
	removePartials()
}

// worst folds the errors of a sweep's concurrent shard operations into
// the one the sweep ends with: a failure outranks a cancellation, which
// outranks a drain; nil when every operation succeeded.
func worst(errs []error) error {
	severity := map[string]int{statusInterrupted: 1, statusCancelled: 2, statusFailed: 3}
	var w error
	for _, err := range errs {
		if err != nil && (w == nil || severity[outcome(err)] > severity[outcome(w)]) {
			w = err
		}
	}
	return w
}

// place is the one loop that puts shard k's sub-sweep on a backend: it
// rotates through backendFor(k, *attempt), probes the candidate's
// health, and POSTs sub to its /api/sweeps, decoding the answer into st.
// It returns the backend that accepted. A 400 is a deterministic spec
// rejection and fails the shard; every other miss counts a retry and
// backs off (jittered) before the next candidate. attempt advances on
// every try, success included, so a shard placed again after losing its
// host starts from the next backend.
func (m *manager) place(ctx context.Context, k int, attempt *int, sub sweepSpec, st *sweepState) (string, error) {
	for {
		if err := context.Cause(ctx); err != nil {
			return "", err
		}
		b := m.backendFor(k, *attempt)
		*attempt++
		if b != "" && m.healthy(b) {
			err := m.postJSON(b+"/api/sweeps", sub, st)
			if err == nil {
				return b, nil
			}
			if permanent(err) {
				return "", fmt.Errorf("shard %d rejected by %s/api/sweeps: %w", k, b, err)
			}
		}
		m.metrics.shardRetries.Inc()
		pause(ctx, backoffDelay(*attempt))
	}
}

// shardHost is one backend currently executing a shard's sub-sweep.
// Normally there is exactly one; a straggler gets a speculative second
// copy, and the first to reach committed-complete wins. instance pins
// the daemon process the sub-sweep was observed on, so a SIGKILL +
// restart that fits inside one poll interval — every request before and
// after it succeeding — is still detected as a loss.
type shardHost struct {
	base     string
	id       string
	instance string
}

// superviseShard owns one shard from dispatch to full replication. It
// submits the sub-sweep (idempotently, by label) to a live backend,
// polls its state, and appends each newly committed byte range of its
// store to the local partial copy. A backend lost or drained mid-shard
// is re-dispatched: a restarted backend finds the label in its
// recovered state and resumes from its own checkpoint; a replacement
// backend pulls the partial copy as its seed store. Both write the
// identical byte stream, so the partial only ever extends.
//
// Straggler stealing rides the same invariant: when the shard's
// committed progress stalls past stealAfter with a single host, a
// second copy of the identical sub-sweep is dispatched to another live
// backend and the supervisor replicates from whichever copy is ahead.
// The first host whose store is done AND fully replicated to the range
// end wins; every other copy is cancelled. The host list is sticky —
// membership expiry only gates NEW dispatch, so a heartbeat hiccup
// never drops a host that is still answering.
func (m *manager) superviseShard(ctx context.Context, sub sweepSpec, k int, path string, progress func(k, records int)) error {
	local := prepPartial(path)
	_, end := sub.Range()
	var hosts []shardHost
	// disown cancels every copy but the one on keep ("" for all),
	// best-effort: a missed DELETE only wastes backend cycles, never
	// correctness. Copies sit on distinct backends, so the base names one.
	disown := func(keep string) {
		for _, h := range hosts {
			if h.base != keep {
				m.cancelRemote(h.base, h.id)
			}
		}
	}
	attempt := 0
	records := 0
	lastAdvance := time.Now()
	for {
		if err := context.Cause(ctx); err != nil {
			if errors.Is(err, errCancelled) {
				// The parent sweep was cancelled: disown every copy so no
				// backend keeps simulating for a coordinator that left.
				disown("")
			}
			return err
		}
		if len(hosts) == 0 {
			var st sweepState
			b, err := m.place(ctx, k, &attempt, sub, &st)
			if err != nil {
				return err
			}
			hosts = append(hosts, shardHost{base: b, id: st.ID})
			m.metrics.shardsDispatched.Inc()
			lastAdvance = time.Now()
		}
		if m.stealAfter > 0 && len(hosts) == 1 && time.Since(lastAdvance) > m.stealAfter {
			if b := m.stealTarget(k, hosts); b != "" {
				var st sweepState
				if err := m.postJSON(b+"/api/sweeps", sub, &st); err == nil {
					hosts = append(hosts, shardHost{base: b, id: st.ID})
					m.metrics.shardsDispatched.Inc()
					m.metrics.shardsStolen.Inc()
				}
			}
			// Re-arm the deadline whether or not a target existed: one
			// speculative copy per stall, not one per poll tick.
			lastAdvance = time.Now()
		}
		// Poll every copy; the ones still worth following are kept and every
		// dropped one counts as a retry.
		advanced := false
		var kept []shardHost
		for _, h := range hosts {
			var st sweepState
			inst, err := m.getJSON(h.base+"/api/sweeps/"+h.id, &st)
			if err != nil || (h.instance != "" && inst != h.instance) {
				// Unreachable, or same address but a different process: the
				// backend died and came back inside a poll interval. Re-dispatch
				// by label — the recovered sweep answers the resubmission
				// idempotently, so this costs one POST, never a duplicate
				// simulation.
				continue
			}
			h.instance = inst
			if st.Status == statusFailed {
				// Deterministic execution: a failure on one host would fail
				// identically everywhere, so give up rather than re-dispatch.
				disown(h.base)
				return fmt.Errorf("shard %d failed on %s: %s", k, h.base, st.Error)
			}
			n, next, err := m.fetchShard(h.base, h.id, path, local)
			if err != nil {
				continue
			}
			if n > 0 {
				local += n
				advanced = true
			}
			if st.Records > records {
				records = st.Records
				progress(k, records)
				advanced = true
			}
			switch st.Status {
			case statusDone:
				if next >= end {
					// Committed-complete and fully replicated: this copy wins.
					disown(h.base)
					return nil
				}
				// A done status whose replicated store stops short of the
				// range end means the backend lost or pruned the store between
				// commit and fetch (retention, disk loss): drop the host and
				// re-dispatch rather than merge an incomplete partial.
				continue
			case statusInterrupted, statusCancelled:
				// The backend parked the copy (its own drain, or an operator
				// DELETE): drop it — same label on a restart resumes it,
				// another backend seed-pulls the partial.
				continue
			}
			kept = append(kept, h)
		}
		m.metrics.shardRetries.Add(float64(len(hosts) - len(kept)))
		hosts = kept
		if advanced {
			lastAdvance = time.Now()
		}
		pause(ctx, shardPollInterval)
	}
}

// stealTarget picks a live, healthy backend not already hosting this
// shard for the speculative copy; "" when the fleet has no spare.
func (m *manager) stealTarget(k int, hosts []shardHost) string {
	live, _ := m.members.live()
	for i := range live {
		b := live[(k+i)%len(live)]
		taken := false
		for _, h := range hosts {
			if h.base == b {
				taken = true
				break
			}
		}
		if !taken && m.healthy(b) {
			return b
		}
	}
	return ""
}

// cancelRemote disowns one sub-sweep copy, best-effort: the losing side
// of a steal, or every copy of a cancelled parent. Failures are ignored
// — an unreachable backend's copy dies with it, and a live one's costs
// only cycles.
func (m *manager) cancelRemote(base, id string) {
	req, err := http.NewRequest(http.MethodDelete, base+"/api/sweeps/"+id, nil)
	if err != nil {
		return
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// prepPartial repairs the local partial copy of a shard store before
// replication resumes and reports its trusted byte length. The partial
// keeps the invariant fetchShard checks on every append — header, then
// whole CRC-valid frames (telemetry.ValidPrefix) — so a kill mid-append
// leaves at most a torn tail, which is truncated off. A file without a
// valid header is removed and replication restarts from 0. The partial
// never has a checkpoint sidecar: the supervisor appends raw fetched
// bytes, so any sidecar (one an older daemon left) is stale and removed.
func prepPartial(path string) int64 {
	os.Remove(telemetry.CheckpointPath(path))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		os.Remove(path)
		return 0
	}
	var n int64
	if st, err := f.Stat(); err == nil {
		n = telemetry.ValidPrefix(f, 0, st.Size())
	}
	if n > 0 && f.Truncate(n) != nil {
		n = 0
	}
	f.Close()
	if n == 0 {
		os.Remove(path)
	}
	return n
}

// fetchShard appends the shard store's bytes [local, committed) from the
// hosting backend to the local partial. The stream is append-only and
// deterministic — every backend executing the shard writes the identical
// byte sequence — so appending from whichever backend currently hosts it
// can never diverge, even across a backend swap mid-shard. The appended
// bytes must run as whole, CRC-valid frames (telemetry.ValidPrefix): a
// failed copy or a cut or garbled body truncates back to local and
// errors, so the partial is always a valid frame prefix and later
// appends never land behind damage.
//
// Alongside the byte count it reports the store's committed next-wearer
// (X-Next-Wearer; -1 when the backend has no committed store yet) — the
// supervisor's completeness witness: a "done" status only wins once the
// replicated store provably reaches the shard's range end, so a backend
// that pruned the store between commit and fetch cannot pass off a
// short partial as complete.
func (m *manager) fetchShard(base, remoteID, path string, local int64) (int64, int, error) {
	resp, err := m.client.Get(fmt.Sprintf("%s/api/sweeps/%s/store?from=%d", base, remoteID, local))
	if err != nil {
		return 0, -1, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, -1, nil // no committed store yet (sweep still queued); poll again
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return 0, -1, &httpStatusError{resp.StatusCode, strings.TrimSpace(string(body))}
	}
	next := -1
	if v, err := strconv.Atoi(resp.Header.Get("X-Next-Wearer")); err == nil {
		next = v
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, next, err
	}
	if _, err := f.Seek(local, 0); err != nil {
		f.Close()
		return 0, next, err
	}
	n, err := io.Copy(f, resp.Body)
	if err == nil && telemetry.ValidPrefix(f, local, local+n) != local+n {
		err = fmt.Errorf("shard store bytes [%d, %d) from %s fail their frame check", local, local+n, base)
	}
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Truncate(path, local)
		return 0, next, err
	}
	m.metrics.shardFetchBytes.Add(float64(n))
	return n, next, nil
}

// fetchSeedStore pulls the coordinator's partial copy of a shard store
// into path, so a replacement backend resumes from the blocks already
// replicated off the lost one instead of re-simulating from scratch.
// Best-effort: any failure leaves no seed behind and the caller starts a
// scratch store — slower, but bit-identical by determinism.
func (m *manager) fetchSeedStore(url, path string) bool {
	resp, err := m.client.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	tmp := path + ".fetch"
	f, err := os.Create(tmp)
	if err != nil {
		return false
	}
	n, err := io.Copy(f, resp.Body)
	cerr := f.Close()
	if err != nil || cerr != nil || n == 0 {
		os.Remove(tmp)
		return false
	}
	// Drop any stale checkpoint before the rename: the sidecar describes
	// the file being replaced, and the seed-pulled store is validated by
	// the scan-resume path instead.
	if err := os.Remove(telemetry.CheckpointPath(path)); err != nil && !os.IsNotExist(err) {
		os.Remove(tmp)
		return false
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return false
	}
	m.metrics.shardFetchBytes.Add(float64(n))
	return true
}
