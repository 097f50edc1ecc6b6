// Command iobfleetd is the long-running fleet service: it accepts sweep
// submissions over HTTP, runs them on a bounded pool of in-process
// runners, and stays observable and killable the whole time.
//
// Usage:
//
//	iobfleetd -listen 127.0.0.1:9370 -data /var/lib/iobfleetd -sweeps 2 \
//	    [-backends http://b0:9370,http://b1:9370] \
//	    [-register http://co:9370 -heartbeat 2s] \
//	    [-expire 10s] [-steal-after 15s] [-retain 100]
//
// # Endpoints
//
// Submissions are a sweep.Spec (wiban/internal/sweep — the one sweep
// definition iobfleet's flags map to as well) plus the daemon's shards
// knob, flat in one JSON object: wearers, seed, dur_seconds, workers,
// per_spread, batt_spread, harvest_prob, drop_prob, ble_frac, drain,
// cells, density, feedback, max_iters, tol_ppm, series_seconds,
// block_size, shards. Every field is literal, no server-side defaults
// beyond zero values (max_iters/tol_ppm 0 select the solver defaults).
// Each sweep runs through sweep.Open/Run, iobfleet -out's path, so the
// daemon and the CLI write byte-identical stores for the same spec:
//
//	POST   /api/sweeps                  submit → 202 + sweep state
//	GET    /api/sweeps                  all sweeps, submission order
//	GET    /api/sweeps/{id}             one sweep's state
//	DELETE /api/sweeps/{id}             cancel (200; 409 once terminal)
//	GET    /api/sweeps/{id}/progress    NDJSON progress stream (curl -N)
//	GET    /api/sweeps/{id}/store       committed telemetry prefix
//	GET    /api/sweeps/{id}/shards/{k}/store  a coordinator's shard partial
//	POST   /api/backends                register/heartbeat a backend
//	GET    /api/backends                the membership table
//	DELETE /api/backends?url=...        deregister (a heartbeat's goodbye)
//	GET    /metrics                     Prometheus text exposition 0.0.4
//	GET    /healthz                     readiness (503 while draining)
//	GET    /debug/pprof/...             live profiling
//
// The store endpoints serve exactly the checkpointed byte prefix —
// never the volatile tail or the trailing index — honoring ?from= for
// incremental pulls and reporting X-Committed-Offset, X-Next-Wearer
// and X-Sweep-Status headers, which is what makes a store an
// append-only replication feed.
//
//	curl -d '{"wearers":1000,"seed":42,"dur_seconds":600,"cells":50}' \
//	    localhost:9370/api/sweeps
//
// Every sweep streams its records into a telemetry store
// (<data>/<id>.wtl, see wiban/internal/telemetry) beside a JSON state
// sidecar (<data>/<id>.json, written atomically), so the daemon's word
// about a sweep is always durable truth: the progress stream ticks only
// on committed blocks, and the /metrics byte/block counters count only
// checkpointed writes. Progress events are full state snapshots, lossy
// for intermediate ticks under a slow reader but guaranteed for the
// final line ("final": true). Submissions past the queue cap are
// refused with 503 before an ID is allocated or anything touches disk;
// recovery on restart bypasses the cap entirely, so a backlog larger
// than it re-queues rather than deadlocking startup.
//
// # Metric catalog
//
// Sweep lifecycle (counters, plus queue gauges):
//
//	iobfleetd_sweeps_submitted_total    accepted by POST /api/sweeps
//	iobfleetd_sweeps_started_total      picked up by a runner (resumes included)
//	iobfleetd_sweeps_completed_total    finished with a fingerprint
//	iobfleetd_sweeps_failed_total       ended by an error
//	iobfleetd_sweeps_interrupted_total  checkpointed and parked by a drain
//	iobfleetd_sweeps_resumed_total      continued from a telemetry checkpoint
//	iobfleetd_sweeps_queued             waiting for a runner (gauge)
//	iobfleetd_sweeps_running            currently executing (gauge)
//
// Engine (func metrics over the shared fleet.Stats the zero-alloc hot
// path updates with atomics; rate() over the first two gives live
// wearers/s and kernel events/s):
//
//	iobfleetd_wearers_simulated_total
//	iobfleetd_kernel_events_total
//	iobfleetd_phase1_gather_seconds_total
//	iobfleetd_phase1_solve_seconds_total
//	iobfleetd_equilibrium_iterations_total
//	iobfleetd_equilibrium_cells_total
//	iobfleetd_reorder_window_depth      (gauge)
//
// Telemetry and per-sweep distributions:
//
//	iobfleetd_telemetry_blocks_written_total
//	iobfleetd_telemetry_bytes_written_total
//	iobfleetd_sweep_duration_seconds    (histogram)
//	iobfleetd_phase1_duration_seconds   (histogram)
//
// Shard dispatch and fleet membership (coordinator side):
//
//	iobfleetd_shards_dispatched_total   sub-sweeps shipped to a backend
//	iobfleetd_shards_stolen_total       speculative copies planted past -steal-after
//	iobfleetd_shard_retries_total       dispatch/stream attempts retried
//	iobfleetd_shard_fetch_bytes_total   committed store bytes pulled back
//	iobfleetd_backends_configured       size of the -backends list (gauge)
//	iobfleetd_backends_registered       membership table size incl. static (gauge)
//	iobfleetd_backends_live             members currently past their TTL gate (gauge)
//	iobfleetd_backend_registrations_total  POST /api/backends registrations + revivals
//	iobfleetd_backends_expired_total    live→expired transitions (lazy, counted on read)
//
// Cancellation and retention:
//
//	iobfleetd_sweeps_cancelled_total    parked terminally by DELETE
//	iobfleetd_sweeps_retired_total      terminal sweeps GC'd past -retain
//
// Go runtime: iobfleetd_goroutines, iobfleetd_heap_alloc_bytes,
// iobfleetd_gc_cycles_total.
//
// # Sharded dispatch
//
// A sweep submitted with "shards": N > 1 makes this daemon a
// coordinator: it splits the wearer range [0, Wearers) into N
// contiguous sub-ranges, submits each as an ordinary sweep (same spec,
// first_wearer/end_wearer set, shards stripped) to the live fleet —
// the -backends list plus every dynamically registered member (see
// Fleet membership below) — then streams each shard's committed store
// bytes back incrementally and merges the replicas into one <id>.wtl. Because per-wearer seeds derive from absolute
// indices and block boundaries are deterministic, every backend
// executing a given shard writes the identical byte sequence, so the
// merged store — fingerprint, blocks, checkpoint and trailing index —
// is bit-identical to the same spec run unsharded in a single process.
// Every writer cuts its blocks on the absolute wearer grid (a multiple
// of block_size), so apart from one short block at each end of a shard
// whose range falls off the grid, a shard's blocks are the very blocks
// the single process writes: the merge checks each such record+series
// pair as strictly as any reader and copies its bytes, and re-encodes
// only the seam blocks. That guarantee covers series sampling: a
// sharded sweep accepts series_seconds, each backend commits its
// record+series frame pairs in one write (so the replicated committed
// prefix always ends after a complete pair), and iobtrace query reads
// identical numbers off the merged store and a single-backend run's.
// Backends of one fleet must run one build: the fault model below rests
// on every backend writing a shard's identical byte sequence, and builds
// that cut blocks differently do not.
//
// A coupled sweep (cells > 0) dispatches the same way: each shard's
// engine computes phase 1 — the per-cell load gather and, with
// feedback, the equilibrium solve — over the whole population [0,
// wearers) before simulating its own range, exactly as an unsharded or
// resumed run does, so phase 2 sees a single process's phase 1. Every
// shard repeats that O(wearers) pass; nothing but the sub-spec crosses
// the wire.
//
// The fault model is label-idempotent re-dispatch. Sub-sweeps carry a
// deterministic label; re-submitting one is a no-op on a backend that
// already holds it, so a lost connection just re-asks. A backend that
// dies and comes back on the same address resumes its recovered shard
// from its own checkpoint; a replacement backend with an empty data
// dir seed-pulls the coordinator's partial replica (the shards/{k}
// endpoint) and appends from there. Fetched bytes are kept only once
// their frames pass the CRC check, so a cut or garbled body never
// lands in the partial (FuzzFetchShard); a coordinator restarted after a
// kill mid-append cuts the torn tail back to the same frame check before
// it fetches again (TestPrepPartial). A backend's answer to the
// submission is the whole readiness signal: a draining backend or one
// whose queue is full answers 503, a dead one a transport error, and
// either way placement moves on to the next member (only a 400, a spec
// every backend would reject, fails the shard). /healthz reports the
// same readiness — 200 while accepting work, 503 once draining — for
// clients that poll before they submit. Each sweep response carries an
// X-Iobfleetd-Instance nonce, so a supervisor notices a backend that
// was killed and restarted between two polls even when the address
// never changed.
// TestShardedFingerprint and TestShardedSeriesFingerprint (bytes and
// fingerprint vs an unsharded run, both coupling modes, series on and
// off) and TestShardedChaosKillResume (a backend SIGKILLed mid-sweep
// and resurrected, byte-identity required afterwards) pin the contract.
//
// # Fleet membership
//
// Besides the static -backends list, backends join the fleet by
// registering themselves: a daemon started with -register posts its
// own base URL to each named coordinator's /api/backends and keeps
// heartbeating it every -heartbeat interval; on drain the loop sends a
// goodbye DELETE so the coordinator stops selecting a backend that is
// about to exit. A member that falls silent past the coordinator's
// -expire TTL stops being selected for new shard placement — but
// expiry gates placement only: a supervisor's host list is sticky, so
// replication keeps pulling from an "expired" backend that still
// answers, and an in-flight shard is never dropped by a missed
// heartbeat. Expiry is lazy-on-read (checked when the table is
// consulted, counted once per live→expired transition), an expired
// entry stays in the table and revives in place on the next heartbeat
// (one row per address, however often it blinks). The table lives in
// memory: a restarted coordinator starts from its -backends entries,
// and each dynamic member is back after its next heartbeat. The table
// is the only place a shard can go. While no member is live — a lone
// daemon, an all-expired fleet, or the last member deregistered —
// sharded dispatch waits (the sweep stays running with 0 records and
// iobfleetd_shard_retries_total rises) until a member is listed or
// registers. A daemon may shard onto itself by naming its own URL in
// -backends; that needs spare -sweeps slots, because the coordinator
// sweep holds one while its shards run. TestMembershipTable,
// TestShardsWaitForAMember, TestCoordinatorRestartDynamicFleet and
// TestMembershipExpiryKeepsInFlightDispatch pin the semantics.
//
// # Work-stealing
//
// A shard whose committed progress stalls for longer than -steal-after
// while other backends sit live is speculatively re-dispatched: the
// supervisor plants a copy of the sub-sweep (same deterministic label,
// disjoint data dirs) on another live backend and replicates from
// whichever copy commits first; completion is committed-prefix wins —
// a copy only finishes the shard when its replicated bytes reach the
// shard's end. The losing copy is cancelled on its backend so no queue
// slot or runner is left working for a shard someone else finished.
// Because every backend executing a shard writes the identical byte
// sequence, speculation never risks divergence — the merged store is
// byte-identical no matter which copy won. -steal-after 0 disables
// stealing. TestStealStraggler (a backend whose only slot is hogged;
// the copy wins elsewhere and the loser is cancelled) and
// TestStealKilledBackendNeverRestarts (a SIGKILLed backend that never
// comes back; survivors absorb its shards, byte-identity required)
// pin it, and TestSustainedChaos keeps the whole self-healing surface
// honest under a seeded adversary of kills, drains, restarts, spawns
// and cancellations.
//
// # Cancellation
//
// DELETE /api/sweeps/{id} parks a sweep terminally from any live
// state: a queued sweep never starts (its slot is released), a running
// sweep aborts at its next record boundary, and a coordinator sweep
// additionally cancels every sub-sweep on every backend and removes
// its partial shard stores — cancelled means no runner, no queue slot
// and no partials anywhere in the fleet. The request is idempotent
// (re-DELETE of a cancelled sweep is 200 without recounting); a sweep
// already done or failed answers 409. Cancellation is durable: the
// request is recorded in the sidecar, so a daemon killed between the
// DELETE and the park finalizes the cancel on recovery instead of
// resuming the sweep. The committed telemetry written before the
// cancel stays on disk (useful as a partial trace) until retention
// collects it. TestCancelQueued/Running/Recovery and
// TestCancelShardedPropagates pin the path.
//
// # Retention
//
// -retain N keeps the newest N terminal (done or cancelled) sweeps in
// -data and garbage-collects older ones — sidecar, store and
// checkpoint — counting a retirement per collected sweep. Resumable
// state is never touched: interrupted, queued and running sweeps don't
// count against N and their stores and checkpoints survive both the
// steady-state prune and the boot-time prune a restart runs before
// serving. 0 (the default) keeps everything. TestRetainGC pins both
// sides.
//
// # Sweep lifecycle
//
// A sweep goes queued → running → done, failed, interrupted or
// cancelled. Every status change but a new sweep's birth as queued is
// made by one function, the manager's move, under the manager lock and
// then the sweep's. move keeps the books that follow from the status:
// the pending queue holds exactly the queued sweeps (the queued gauge
// is its length), the running gauge counts claimed runs, the new
// status's entry counter (started, completed, failed, interrupted,
// cancelled) is bumped, and the sidecar is rewritten and the state
// published — as the final event once the sweep rests, terminal or
// interrupted. Recovery, label revival and DELETE all go through it. A
// runner checks the drain flag, pops the queue head and claims it
// (queued → running, plus the run's context) in one hold of the
// manager lock, so no sweep is ever popped but unclaimed: a drain
// leaves every unclaimed sweep queued in place, and a DELETE either
// unqueues a sweep before its claim or cancels the claimed run.
// TestLifecycleInvariants pins the books under concurrent cancels, a
// drain, a restart and a revival.
//
// # Drain and restart
//
// Shutdown is a first-class path, not an accident. On SIGTERM or SIGINT
// the daemon drains: running sweeps abort at their next record boundary
// with the telemetry checkpoint intact, park as "interrupted" (their
// progress streams end with a final event), queued sweeps stay queued,
// new submissions get 503, and the process exits 0. On the next start
// with the same -data, every non-terminal sweep — interrupted, queued,
// or mid-run crashed (SIGKILL included: recovery needs only the
// sidecars and store checkpoints on disk) — re-enters the queue in ID
// order and resumes from its checkpoint. Resumed fingerprints are
// bit-identical to uninterrupted runs, the same contract iobfleet
// -resume keeps; TestChaosKillResume is the pinning test.
//
// /debug/pprof serves live profiles from the same mux; pair it with the
// iobfleet -cpuprofile/-memprofile flags when you want offline capture
// of a single sweep instead.
package main
