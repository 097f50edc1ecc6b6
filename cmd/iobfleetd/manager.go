package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"wiban/internal/fleet"
	"wiban/internal/obs"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
)

// The causes a running sweep's context ends with. Either way the engine
// stops at the next record boundary with the store's last committed
// checkpoint intact; a drain parks the sweep "interrupted" for the next
// process to resume, a DELETE /api/sweeps/{id} parks it terminally as
// "cancelled".
var (
	errDrained   = errors.New("iobfleetd: draining")
	errCancelled = errors.New("iobfleetd: sweep cancelled")
)

// cancel() result sentinels, mapped to HTTP codes by the DELETE handler.
var (
	errNoSweep  = errors.New("no such sweep")
	errTerminal = errors.New("sweep already terminal")
)

// errQueueFull refuses a submission past the queue cap.
var errQueueFull = errors.New("sweep queue full")

// Sweep statuses. A sweep moves queued → running → {done, failed,
// interrupted, cancelled}; interrupted and (recovered) running/queued
// sweeps re-enter the queue on restart. done, failed and cancelled are
// terminal — though a cancelled sweep resubmitted under its label is
// revived, which is how a stolen shard's losing copy can be
// re-dispatched later.
const (
	statusQueued      = "queued"
	statusRunning     = "running"
	statusDone        = "done"
	statusFailed      = "failed"
	statusInterrupted = "interrupted"
	statusCancelled   = "cancelled"
)

// sweepState is everything the daemon knows about one sweep — exactly
// what the `<id>.json` sidecar persists and the API serves. Progress
// fields (records, blocks, bytes) track the telemetry store's committed
// prefix, so they are durable truth, not optimistic in-memory counts.
type sweepState struct {
	ID          string    `json:"id"`
	Spec        sweepSpec `json:"spec"`
	Status      string    `json:"status"`
	Records     int       `json:"records"`
	Blocks      int       `json:"blocks"`
	Bytes       int64     `json:"bytes"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Error       string    `json:"error,omitempty"`
	// CancelRequested survives a crash between the DELETE and the
	// runner's acknowledgement: recovery finalizes such a sweep as
	// cancelled instead of re-queueing work nobody wants anymore.
	CancelRequested bool `json:"cancel_requested,omitempty"`
}

func (st *sweepState) terminal() bool {
	return st.Status == statusDone || st.Status == statusFailed || st.Status == statusCancelled
}

// resting reports whether no runner will move the sweep on its own: it
// is terminal or parked interrupted. A resting state's progress event is
// the final one a subscriber receives.
func (st *sweepState) resting() bool {
	return st.terminal() || st.Status == statusInterrupted
}

// progressEvent is one NDJSON line on a sweep's progress stream: the
// sweep's state snapshot at a block-commit tick (or status change).
// Final marks the last event a subscriber will receive.
type progressEvent struct {
	sweepState
	WearersTotal int  `json:"wearers_total"`
	Final        bool `json:"final"`
}

// job is the in-memory half of a sweepState: the mutable state plus
// its progress subscribers and, while it runs, the cancel function of
// its context. All fields are guarded by mu. Lock order is always
// manager.mu → job.mu; no path takes them the other way round, and
// every status change (move) holds both, which is what makes the
// runner's queued→running claim and cancel()'s queued→cancelled
// transition mutually exclusive instead of racy.
type job struct {
	mu   sync.Mutex
	st   sweepState
	subs map[chan progressEvent]struct{}
	stop context.CancelCauseFunc // ends the claimed run's context; set by the claim, cleared by move
}

func (sw *job) snapshot() sweepState {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.st
}

// subscribe registers a progress listener. The current state arrives
// immediately as the first event, so a subscriber never waits for the
// next commit tick to learn where the sweep stands; if the sweep is
// already terminal that first event is also the last.
func (sw *job) subscribe() chan progressEvent {
	ch := make(chan progressEvent, 16)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.subs == nil {
		sw.subs = make(map[chan progressEvent]struct{})
	}
	sw.subs[ch] = struct{}{}
	ch <- sw.event(sw.st.resting())
	return ch
}

func (sw *job) unsubscribe(ch chan progressEvent) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	delete(sw.subs, ch)
}

// event builds the progress event for the current state. Caller holds mu.
func (sw *job) event(final bool) progressEvent {
	return progressEvent{sweepState: sw.st, WearersTotal: sw.st.Spec.Wearers, Final: final}
}

// publish fans the current state out to every subscriber. Sends are
// lossy for intermediate events — a slow reader's oldest buffered event
// is dropped to make room — but never for the event itself: after the
// drop there is always room, so the final event always lands. Caller
// holds mu (the publisher is single-threaded per sweep: its runner).
func (sw *job) publish(final bool) {
	ev := sw.event(final)
	for ch := range sw.subs {
		select {
		case ch <- ev:
		default:
			select {
			case <-ch: // shed the oldest event; the snapshot supersedes it
			default:
			}
			ch <- ev
		}
	}
}

// defaultQueueCap bounds how many sweeps may wait for a runner before
// submissions are refused. Recovery is exempt: a restart re-queues every
// non-terminal sidecar however many there are, so a daemon can always
// pick its own state back up.
const defaultQueueCap = 4096

// manager owns the sweep set: submissions, the bounded runner pool, the
// sidecar persistence, crash recovery, the drain protocol and — for
// sweeps with a shards field — the multi-backend coordinator.
type manager struct {
	dir     string
	stats   *fleet.Stats // shared by every sweep; counters accumulate daemon-wide
	metrics *daemonMetrics

	// instance is this process's nonce, served as X-Iobfleetd-Instance on
	// sweep-state responses. A backend SIGKILLed and restarted inside one
	// poll interval is otherwise invisible to its coordinator — every
	// request before and after the blink succeeds — but the blink rolls
	// the nonce, so supervisors detect the silent restart and re-dispatch
	// (label-idempotent, hence safe even when the recovered sweep is
	// already running again).
	instance string

	// drainCtx ends (cause errDrained) when the daemon starts draining;
	// every running sweep's context derives from it.
	drainCtx  context.Context
	stopDrain context.CancelCauseFunc
	wg        sync.WaitGroup

	backends []string    // static -backends entries (seed the membership; kept for the configured gauge)
	members  *membership // live fleet table shard dispatch selects from
	selfBase string      // this daemon's own base URL, set by start() after listen
	client   *http.Client
	slots    int

	// stealAfter is the straggler deadline: a dispatched shard whose
	// committed progress stalls this long gets a speculative second copy
	// on another live backend (0 disables stealing). retain bounds the
	// terminal sweeps kept in -data (0 keeps everything).
	stealAfter time.Duration
	retain     int

	mu       sync.Mutex
	cond     *sync.Cond // wakes runners when pending gains work or drain begins
	pending  []*job     // exactly the queued sweeps, FIFO (unbounded; queueCap gates submissions only)
	draining bool
	queueCap int
	sweeps   map[string]*job
	order    []string          // submission order (ID order)
	byLabel  map[string]string // shard label → sweep ID (idempotent re-dispatch)
	nextID   int
	running  int // claimed runs not yet moved out of running
}

// daemonMetrics is the daemon's own event-driven metric set. The
// engine-sourced series (wearers, events, phase-1 time, equilibrium
// iterations, window depth) are registered as func metrics over the
// shared fleet.Stats and need no fields here.
type daemonMetrics struct {
	// entered counts every move into a status, keyed by that status
	// (running: started, done: completed, ...); queued has no counter.
	entered                                         map[string]*obs.Counter
	submitted, resumed, retired                     *obs.Counter
	blocksWritten, bytesWritten                     *obs.Counter
	shardsDispatched, shardRetries, shardFetchBytes *obs.Counter
	shardsStolen                                    *obs.Counter
	registrations, expirations                      *obs.Counter
	sweepSeconds, phase1Seconds                     *obs.Histogram
}

// newManager loads any sweeps a previous process left in dir, re-queues
// the unfinished ones, and registers the full metric catalog on reg.
// Runners do not start until start() — recovery therefore cannot block
// on queue capacity (it stages into an unbounded pending list), and a
// coordinator sweep never runs before the daemon knows its own address.
func newManager(dir string, slots int, reg *obs.Registry, backends []string) (*manager, error) {
	if slots < 1 {
		slots = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &manager{
		dir:      dir,
		stats:    &fleet.Stats{},
		instance: fmt.Sprintf("%d-%016x", os.Getpid(), rand.Uint64()),
		backends: backends,
		client:   &http.Client{Timeout: 30 * time.Second},
		slots:    slots,
		queueCap: defaultQueueCap,
		sweeps:   make(map[string]*job),
		byLabel:  make(map[string]string),
	}
	m.cond = sync.NewCond(&m.mu)
	m.drainCtx, m.stopDrain = context.WithCancelCause(context.Background())
	m.registerMetrics(reg)
	m.members = newMembership(backends, m.metrics.registrations, m.metrics.expirations)
	if err := m.recover(); err != nil {
		return nil, err
	}
	return m, nil
}

// start records the daemon's own base URL (the address its shards'
// seed-store URLs name) and starts the runner pool. Called once the
// listener is up.
func (m *manager) start(selfBase string) {
	m.selfBase = selfBase
	for i := 0; i < m.slots; i++ {
		m.wg.Add(1)
		go m.runner()
	}
}

// recover scans dir for `<id>.json` sidecars and rebuilds the sweep
// set. Terminal sweeps are kept for the API; anything a dead process
// left queued, running or interrupted moves back onto the queue in ID
// order — running/interrupted sweeps resume from their telemetry
// checkpoint when a runner picks them up. The queue is unbounded by
// design: recovery never deadlocks on how many sweeps a dead process
// left behind.
func (m *manager) recover() error {
	names, err := filepath.Glob(filepath.Join(m.dir, "s*.json"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		var st sweepState
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("sweep sidecar %s: %w", name, err)
		}
		var n int
		if _, err := fmt.Sscanf(st.ID, "s%06d", &n); err != nil || filepath.Base(name) != st.ID+".json" {
			return fmt.Errorf("sweep sidecar %s: id %q does not match filename", name, st.ID)
		}
		if n >= m.nextID {
			m.nextID = n + 1
		}
		sw := &job{st: st}
		m.sweeps[st.ID] = sw
		m.order = append(m.order, st.ID)
		if st.Spec.Label != "" {
			m.byLabel[st.Spec.Label] = st.ID
		}
		switch {
		case st.terminal():
		case st.CancelRequested:
			// The process died between the DELETE and the runner's
			// acknowledgement: finalize the cancellation instead of
			// re-queueing work nobody wants. The checkpointed store stays
			// for retention to collect.
			m.move(sw, statusCancelled, "")
		default:
			m.move(sw, statusQueued, "")
		}
	}
	return nil
}

// submit validates, persists and enqueues a new sweep. A draining
// daemon refuses submissions so the queue is quiescent at exit. The
// queue-capacity check happens BEFORE any state is created: a refused
// submission leaves no sidecar, no registry entry and no gauge increment
// — the HTTP response and the on-disk state always agree.
func (m *manager) submit(spec sweepSpec) (sweepState, error) {
	if err := spec.normalize(); err != nil {
		return sweepState{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return sweepState{}, errDrained
	}
	if id, ok := m.byLabel[spec.Label]; ok {
		// Idempotent re-dispatch: a coordinator resubmitting a shard
		// (after its own restart, or a lost response) gets the existing
		// sweep back instead of a duplicate simulation.
		sw := m.sweeps[id]
		sw.mu.Lock()
		defer sw.mu.Unlock()
		switch {
		case !reflect.DeepEqual(sw.st.Spec, spec):
			return sweepState{}, fmt.Errorf("label %q already names sweep %s with a different spec", spec.Label, id)
		case sw.st.Status != statusCancelled:
		case len(m.pending) >= m.queueCap:
			return sweepState{}, errQueueFull
		default:
			// Revival: the steal protocol cancels a losing shard copy, but
			// a coordinator re-dispatching the same label later (its winner
			// died too) must be able to run it again — from the checkpoint
			// the cancellation parked.
			sw.st.CancelRequested = false
			m.move(sw, statusQueued, "")
			m.metrics.submitted.Inc()
		}
		return sw.st, nil
	}
	if len(m.pending) >= m.queueCap {
		// Back-pressure the client rather than block the HTTP handler.
		return sweepState{}, errQueueFull
	}
	// The one status move does not set: a new sweep is born queued, and
	// its sidecar is durable before anything else learns of it. Until
	// m.mu is released no runner can claim it, so sw.st is ours to read.
	id := fmt.Sprintf("s%06d", m.nextID)
	m.nextID++
	sw := &job{st: sweepState{ID: id, Spec: spec, Status: statusQueued}}
	if err := m.persist(sw); err != nil {
		return sweepState{}, err
	}
	m.sweeps[id] = sw
	m.order = append(m.order, id)
	if spec.Label != "" {
		m.byLabel[spec.Label] = id
	}
	m.pending = append(m.pending, sw)
	m.cond.Signal()
	m.metrics.submitted.Inc()
	return sw.st, nil
}

// get returns one sweep by ID.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sw, ok := m.sweeps[id]
	return sw, ok
}

// list returns every sweep's state in submission order.
func (m *manager) list() []sweepState {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	sweeps := make([]*job, len(order))
	for i, id := range order {
		sweeps[i] = m.sweeps[id]
	}
	m.mu.Unlock()
	out := make([]sweepState, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.snapshot()
	}
	return out
}

// move is the one status transition; only the literal that mints a new
// sweep in submit sets a status without it. Caller holds m.mu, then
// sw.mu. move keeps the books that follow from the status:
//   - pending holds exactly the queued sweeps, in FIFO order;
//   - running counts claimed runs (the claim sets sw.stop; a recovered
//     sidecar's "running" belongs to a dead process and was never claimed);
//   - the entry counter for the new status is bumped;
//   - the sidecar is rewritten and the state published, final once the
//     sweep is resting.
func (m *manager) move(sw *job, to, errMsg string) {
	switch {
	case sw.st.Status == statusQueued:
		if i := slices.Index(m.pending, sw); i >= 0 {
			m.pending = slices.Delete(m.pending, i, i+1)
		}
	case sw.st.Status == statusRunning && sw.stop != nil:
		m.running--
		sw.stop = nil
	}
	sw.st.Status, sw.st.Error = to, errMsg
	switch to {
	case statusQueued:
		m.pending = append(m.pending, sw)
		m.cond.Signal()
	case statusRunning:
		m.running++
	}
	if c := m.metrics.entered[to]; c != nil {
		c.Inc()
	}
	m.save(sw)
	sw.publish(sw.st.resting())
}

// save persists the sidecar after an in-memory change. The change
// stands even if the write fails: a restart then replays this sweep from
// its last durable state, which the resume path is built to absorb, so
// say so rather than die mid-drain.
func (m *manager) save(sw *job) {
	if err := m.persist(sw); err != nil {
		fmt.Fprintf(os.Stderr, "iobfleetd: persisting %s: %v\n", sw.st.ID, err)
	}
}

// persist writes the sweep's sidecar atomically (temp + rename), the
// same durability discipline as the telemetry checkpoint: a crash
// leaves either the old state or the new, never a torn file.
func (m *manager) persist(sw *job) error {
	raw, err := json.MarshalIndent(&sw.st, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(m.dir, sw.st.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runner is one slot of the bounded pool: it claims queued sweeps until
// the daemon drains. The pop and the queued→running claim happen in the
// same m.mu hold as the drain check, so a sweep is never popped but
// unclaimed: a drain leaves every unclaimed sweep queued where it is,
// and a cancel either unqueues a sweep before the claim or finds it
// running after.
func (m *manager) runner() {
	defer m.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.draining {
		if len(m.pending) == 0 {
			m.cond.Wait()
			continue
		}
		// The run's context ends at a drain (errDrained) or a DELETE
		// (errCancelled); the running sweep stops at its next record boundary.
		sw := m.pending[0]
		ctx, stop := context.WithCancelCause(m.drainCtx)
		sw.mu.Lock()
		sw.stop = stop
		m.move(sw, statusRunning, "")
		sw.mu.Unlock()
		m.mu.Unlock()
		m.run(ctx, sw)
		stop(nil)
		m.mu.Lock()
	}
}

// beginDrain flips the daemon into drain mode: no new submissions, no
// new sweep starts, and every running sweep aborts at its next record
// boundary (checkpoint intact). It returns once all runners have
// exited — after it returns, every sweep is queued, interrupted or
// terminal, and the process may exit.
func (m *manager) beginDrain() {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		m.stopDrain(errDrained)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// isDraining reports whether the daemon is shutting down — the health
// endpoint's readiness signal, which submissions refuse alongside.
func (m *manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// run executes one claimed sweep to a resting state.
func (m *manager) run(ctx context.Context, sw *job) {
	storePath := m.storePath(sw.st.ID)
	spec := sw.snapshot().Spec
	if spec.Shards > 0 {
		m.runSharded(ctx, sw, spec, storePath)
		return
	}
	f, meta, err := spec.Build(m.stats)
	if err != nil {
		m.finish(sw, err)
		return
	}

	// A checkpointed store means a previous process died (or drained)
	// mid-sweep: resume it. A shard sub-sweep with no local store first
	// tries the coordinator's seed-store URL — the blocks already
	// replicated off a lost backend — and falls back to a scratch store
	// (bit-identical, just slower) if the pull fails.
	st, serr := os.Stat(storePath)
	resume := serr == nil && st.Size() > 0
	if !resume && spec.SeedStoreURL != "" {
		resume = m.fetchSeedStore(spec.SeedStoreURL, storePath)
	}
	s, err := sweep.Open(f, meta, storePath, resume)
	if err != nil {
		m.finish(sw, err)
		return
	}
	if resume {
		m.metrics.resumed.Inc()
	}

	// Progress and the telemetry byte/block counters ride the store's
	// commit tick: each callback fires after a block and its checkpoint
	// are durable, so everything the stream reports is crash-safe truth.
	baseBlocks, baseBytes := s.Store.Blocks(), s.Store.Offset()
	firstWearer, _ := meta.Range()
	s.Store.OnCommit = func(blocks, records int, bytes int64) {
		m.metrics.blocksWritten.Add(float64(blocks - baseBlocks))
		m.metrics.bytesWritten.Add(float64(bytes - baseBytes))
		baseBlocks, baseBytes = blocks, bytes
		sw.mu.Lock()
		// records is the writer's absolute next wearer; Records counts the
		// sweep's own committed records, so a shard store subtracts its base.
		sw.st.Blocks, sw.st.Records, sw.st.Bytes = blocks, records-firstWearer, bytes
		sw.publish(false)
		sw.mu.Unlock()
	}

	start := time.Now()
	perf, err := s.Run(ctx)
	if err != nil {
		m.finish(sw, err) // a cancelled sweep's checkpoint stays; retention collects it later
		return
	}
	m.metrics.sweepSeconds.Observe(time.Since(start).Seconds())
	m.metrics.phase1Seconds.Observe(perf.Phase1.Seconds())
	sw.mu.Lock()
	sw.st.Fingerprint = s.Agg.Report().Fingerprint()
	sw.st.Records = s.Agg.Wearers()
	sw.mu.Unlock()
	m.finish(sw, nil)
}

// finish moves a claimed sweep whose run ended with err (nil: done) to
// its resting state and returns the status that stuck: a drain that
// lands on a sweep whose cancellation was already requested parks it
// "cancelled", not "interrupted" — a restart must not revive work the
// DELETE already disowned.
func (m *manager) finish(sw *job, err error) string {
	to, msg := outcome(err), ""
	if to == statusFailed {
		msg = err.Error()
	}
	m.mu.Lock()
	sw.mu.Lock()
	if to == statusInterrupted && sw.st.CancelRequested {
		to = statusCancelled
	}
	m.move(sw, to, msg)
	sw.mu.Unlock()
	m.mu.Unlock()
	if to == statusDone || to == statusCancelled {
		m.pruneRetained()
	}
	return to
}

// outcome is the daemon's one mapping from the error a run ended with to
// the sweep's resting status: none is done, a DELETE (errCancelled)
// parks it cancelled, a drain (errDrained) interrupted, anything else
// fails it.
func outcome(err error) string {
	switch {
	case err == nil:
		return statusDone
	case errors.Is(err, errCancelled):
		return statusCancelled
	case errors.Is(err, errDrained):
		return statusInterrupted
	}
	return statusFailed
}

// cancel implements DELETE /api/sweeps/{id}. A sweep no runner owns —
// queued or interrupted — moves to cancelled on the spot; a running
// sweep has its context cancelled and its runner parks it cancelled at
// the next record boundary. done and failed are already settled
// (errTerminal); cancelling a cancelled sweep is idempotent.
func (m *manager) cancel(id string) (sweepState, error) {
	m.mu.Lock()
	sw, ok := m.sweeps[id]
	if !ok {
		m.mu.Unlock()
		return sweepState{}, errNoSweep
	}
	sw.mu.Lock()
	var err error
	prune := false
	switch sw.st.Status {
	case statusDone, statusFailed:
		err = errTerminal
	case statusQueued, statusInterrupted:
		sw.st.CancelRequested = true
		m.move(sw, statusCancelled, "")
		prune = true
	case statusRunning:
		// End the run's context and persist the request; the runner
		// completes the transition at the next record boundary (or the shard
		// supervisors cancel their sub-sweeps).
		sw.st.CancelRequested = true
		sw.stop(errCancelled)
		m.save(sw)
	}
	st := sw.st
	sw.mu.Unlock()
	m.mu.Unlock()
	if prune {
		m.pruneRetained()
	}
	return st, err
}

// pruneRetained enforces -retain: beyond the newest N terminal-and-done
// sweeps (done or cancelled — failed sweeps are kept as evidence), the
// oldest are dropped from the registry and their store, checkpoint,
// shard partials and sidecar unlinked. Non-terminal sweeps are never
// touched: queued/running/interrupted state is resumable and GC must
// not eat it.
func (m *manager) pruneRetained() {
	if m.retain <= 0 {
		return
	}
	m.mu.Lock()
	kept := 0
	var victims []*job
	for i := len(m.order) - 1; i >= 0; i-- {
		sw := m.sweeps[m.order[i]]
		sw.mu.Lock()
		st := sw.st.Status
		sw.mu.Unlock()
		if st != statusDone && st != statusCancelled {
			continue
		}
		if kept++; kept > m.retain {
			victims = append(victims, sw)
		}
	}
	for _, sw := range victims {
		sw.mu.Lock()
		id, label := sw.st.ID, sw.st.Spec.Label
		sw.mu.Unlock()
		delete(m.sweeps, id)
		if label != "" && m.byLabel[label] == id {
			delete(m.byLabel, label)
		}
		for i, oid := range m.order {
			if oid == id {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
	m.mu.Unlock()
	for _, sw := range victims {
		id := sw.st.ID
		store := filepath.Join(m.dir, id+".wtl")
		os.Remove(filepath.Join(m.dir, id+".json"))
		os.Remove(store)
		os.Remove(telemetry.CheckpointPath(store))
		if partials, err := filepath.Glob(filepath.Join(m.dir, id+".shard*")); err == nil {
			for _, p := range partials {
				os.Remove(p)
			}
		}
		m.metrics.retired.Inc()
	}
}

// registerMetrics wires the full catalog: daemon lifecycle counters,
// engine-sourced func metrics over the shared fleet.Stats, telemetry
// write counters, per-sweep latency histograms and Go
// runtime gauges.
func (m *manager) registerMetrics(reg *obs.Registry) {
	m.metrics = &daemonMetrics{
		submitted: reg.NewCounter("iobfleetd_sweeps_submitted_total", "Sweeps accepted by POST /api/sweeps.", nil),
		entered: map[string]*obs.Counter{
			statusRunning:     reg.NewCounter("iobfleetd_sweeps_started_total", "Sweeps a runner began executing (resumes included).", nil),
			statusDone:        reg.NewCounter("iobfleetd_sweeps_completed_total", "Sweeps finished with a fingerprint.", nil),
			statusFailed:      reg.NewCounter("iobfleetd_sweeps_failed_total", "Sweeps ended by an error.", nil),
			statusInterrupted: reg.NewCounter("iobfleetd_sweeps_interrupted_total", "Sweeps checkpointed and parked by a drain.", nil),
			statusCancelled:   reg.NewCounter("iobfleetd_sweeps_cancelled_total", "Sweeps cancelled by DELETE (or finalized as cancelled on recovery).", nil),
		},
		resumed: reg.NewCounter("iobfleetd_sweeps_resumed_total", "Sweeps continued from a telemetry checkpoint.", nil),
		retired: reg.NewCounter("iobfleetd_sweeps_retired_total",
			"Terminal sweeps garbage-collected by -retain (store, checkpoint and sidecar unlinked).", nil),
		blocksWritten: reg.NewCounter("iobfleetd_telemetry_blocks_written_total",
			"Telemetry blocks committed (checkpoint durable) across all sweeps.", nil),
		bytesWritten: reg.NewCounter("iobfleetd_telemetry_bytes_written_total",
			"Telemetry store bytes committed across all sweeps.", nil),
		shardsDispatched: reg.NewCounter("iobfleetd_shards_dispatched_total",
			"Shard sub-sweeps dispatched to backends (re-dispatches after a backend loss included).", nil),
		shardRetries: reg.NewCounter("iobfleetd_shard_retries_total",
			"Shard dispatch/poll/fetch attempts retried after a backend error or unhealthy probe.", nil),
		shardFetchBytes: reg.NewCounter("iobfleetd_shard_fetch_bytes_total",
			"Shard store bytes replicated between daemons (coordinator pulls and seed-store pulls).", nil),
		shardsStolen: reg.NewCounter("iobfleetd_shards_stolen_total",
			"Speculative shard copies dispatched after a straggler stalled past -steal-after.", nil),
		registrations: reg.NewCounter("iobfleetd_backend_registrations_total",
			"Backends added to the membership table (first registration or revival after expiry).", nil),
		expirations: reg.NewCounter("iobfleetd_backends_expired_total",
			"Dynamic backends whose heartbeats fell silent past -expire.", nil),
		sweepSeconds: reg.NewHistogram("iobfleetd_sweep_duration_seconds",
			"Wall-clock duration of completed sweeps.", nil,
			[]float64{0.01, 0.1, 1, 10, 60, 600, 3600}),
		phase1Seconds: reg.NewHistogram("iobfleetd_phase1_duration_seconds",
			"Phase-1 (offered-load gather + equilibrium solve) wall-clock time of completed sweeps.", nil,
			[]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}),
	}

	// Engine counters: func metrics over the shared fleet.Stats the hot
	// path updates with atomics — zero extra cost per scrape beyond reads.
	st := m.stats
	reg.NewCounterFunc("iobfleetd_wearers_simulated_total",
		"Wearer simulations completed across all sweeps.", nil,
		func() float64 { return float64(st.Wearers.Load()) })
	reg.NewCounterFunc("iobfleetd_kernel_events_total",
		"Discrete simulation events executed across all sweeps.", nil,
		func() float64 { return float64(st.Events.Load()) })
	reg.NewCounterFunc("iobfleetd_phase1_gather_seconds_total",
		"Cumulative phase-1 offered-load gather time.", nil,
		func() float64 { return float64(st.Phase1GatherNS.Load()) / 1e9 })
	reg.NewCounterFunc("iobfleetd_phase1_solve_seconds_total",
		"Cumulative phase-1 equilibrium solve time.", nil,
		func() float64 { return float64(st.Phase1SolveNS.Load()) / 1e9 })
	reg.NewCounterFunc("iobfleetd_equilibrium_iterations_total",
		"Fixed-point iterations summed over all solved cells.", nil,
		func() float64 { return float64(st.EquilibriumIters.Load()) })
	reg.NewCounterFunc("iobfleetd_equilibrium_cells_total",
		"Cells put through the equilibrium solver.", nil,
		func() float64 { return float64(st.EquilibriumCells.Load()) })
	reg.NewGaugeFunc("iobfleetd_reorder_window_depth",
		"Completed wearer reports parked awaiting in-order emission, across running sweeps.", nil,
		func() float64 { return float64(st.WindowDepth.Load()) })

	reg.NewGaugeFunc("iobfleetd_sweeps_queued", "Sweeps waiting for a runner.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.pending))
	})
	reg.NewGaugeFunc("iobfleetd_sweeps_running", "Sweeps currently executing.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.running)
	})
	reg.NewGaugeFunc("iobfleetd_backends_configured",
		"Shard backends configured via -backends (static members; dynamic ones register).", nil,
		func() float64 { return float64(len(m.backends)) })

	// Membership liveness is derived per scrape, so the gauges are funcs
	// over one locked pass (the table is built right after this call).
	reg.NewGaugeFunc("iobfleetd_backends_registered",
		"Membership table entries (static and dynamic, live or expired).", nil,
		func() float64 { t, _ := m.members.counts(); return float64(t) })
	reg.NewGaugeFunc("iobfleetd_backends_live",
		"Membership entries currently selectable for shard dispatch.", nil,
		func() float64 { _, l := m.members.counts(); return float64(l) })

	reg.NewGaugeFunc("iobfleetd_goroutines", "Goroutines in the daemon process.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc("iobfleetd_heap_alloc_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", nil, func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.NewCounterFunc("iobfleetd_gc_cycles_total", "Completed GC cycles.", nil, func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC)
	})
}
