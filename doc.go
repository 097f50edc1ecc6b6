// Package wiban reproduces "Invited: Human-Inspired Distributed Wearable
// AI" (Sen & Datta, DAC 2024): a body-area network architecture where
// ultra-low-power leaf nodes (sensors plus optional in-sensor analytics)
// offload heavy AI computation to an on-body hub over the electro-
// quasistatic "Body as a Wire" (Wi-R) channel.
//
// The implementation lives in the internal packages:
//
//   - internal/iob — the core architecture API (node designs, power
//     breakdowns, the Fig. 3 battery-life projector, network composition);
//   - internal/channel, internal/phy, internal/radio — the physical
//     substrate (EQS biophysical circuit model, link budgets, transceiver
//     energy models);
//   - internal/nn, internal/partition — per-layer cost models of the
//     wearable DNNs and the split-computing optimizer;
//   - internal/bannet — the discrete-event network simulator. A
//     bannet.Sim is a reusable kernel arena: NewSim builds it, Reset
//     rebinds it to a different scenario and RunInto replays into a
//     caller-owned report, all recycling the packet rings, node states
//     and TDMA slot table — a warmed Reset–RunInto cycle is
//     allocation-free (bannet.Run remains the one-shot convenience). A
//     run walks the superframes and computes each fixed-period tick
//     ahead of them in closed form, with no event queue. The fleet engine gives each worker one
//     long-lived Sim, which is where its wearers-per-second comes from;
//   - internal/fleet — the population-scale engine: N wearer simulations
//     across a worker pool (cmd/iobfleet drives it), with a scenario
//     generator that spreads channel loss, batteries, harvesters and
//     device mixes across the fleet, and deterministic streaming
//     aggregation — completed runs flow through a Sink in wearer-index
//     order (bounded reorder window, O(workers) memory) into online
//     histogram distributions, and the same fleet seed yields a
//     byte-identical report at any worker count, via splitmix64
//     per-wearer seeds (desim.DeriveSeed). With a Coupling the engine
//     runs two-phased: a deterministic per-cell offered-load reduction,
//     then per-wearer kernels whose RF links carry their cell's
//     collision loss (iobfleet -cells/-density sweeps); with Feedback
//     the reduction additionally solves each cell's damped fixed point
//     of the collision→retry→offered-load loop, so kernels see the
//     equilibrium congestion a dense venue settles at (iobfleet
//     -feedback, knobs -max-iters/-tol). The per-wearer hot path is
//     allocation-free in steady state: workers reuse a scratch RNG, a
//     kernel arena and pooled report buffers, sinks receive records on
//     a borrow-until-return contract, and phase 1 runs the Generator's
//     load pass instead of regenerating scenarios (profile a sweep
//     with iobfleet -cpuprofile/-memprofile). The engine also runs
//     range-bounded: Start/End restrict simulation to a wearer window
//     while phase 1 still reduces over the full population —
//     cmd/iobfleetd, the long-running fleet daemon, builds on exactly
//     that to shard one sweep across remote backends ("shards" in the
//     sweep spec; a static -backends list, or backends that register
//     and heartbeat themselves over POST /api/backends with TTL
//     expiry): each shard runs phase 1 itself, simulates its window
//     and replicates committed telemetry blocks back, and because
//     seeds derive from absolute wearer indices the merged store —
//     per-node time series included: writers cut blocks on the
//     absolute wearer grid, so the merge copies every
//     verified record+series pair that lies on it and re-encodes the
//     seam blocks — is byte-identical to a single-process run, even
//     after a backend is SIGKILLed and resumed mid-sweep, replaced,
//     or never comes back at all (straggler shards are speculatively
//     re-dispatched to live members past -steal-after;
//     first-committed copy wins, the loser is cancelled). Sweeps
//     cancel end-to-end (DELETE /api/sweeps/{id}, sub-sweeps and
//     partials included) and -retain bounds the terminal-store
//     backlog without ever touching resumable state;
//   - internal/sweep — the one definition of a sweep (Spec: the
//     iobfleet flags as JSON, normalized and built into a fleet plus
//     its store metadata) and its one run path (Open creates or
//     resumes the store, Run streams into it and stops at a record
//     boundary when its context ends), shared by iobfleet and
//     iobfleetd so both write byte-identical stores, plus Split, which
//     tiles the population into the shard specs iobfleetd dispatches;
//   - internal/spectrum — cross-wearer co-channel interference: wearers
//     hash into spatial cells, each cell sums its members' offered RF
//     airtime in exact integer PPM, and a CSMA/ALOHA collision curve
//     maps foreign load to per-attempt loss — RF degrades with fleet
//     density while body-coupled EQS/MQS links ride free, the paper's
//     shared-spectrum argument at fleet scale; spectrum.Equilibrium
//     closes the collision→retry→offered-load loop with a
//     deterministic damped fixed point per cell (retry-inflated
//     airtime, geometric in each node's retry budget);
//   - internal/telemetry — the streaming fleet-telemetry store
//     (cmd/iobtrace inspects it): delta/bit-packed columnar blocks with
//     CRC footers plus an atomically-renamed checkpoint sidecar, so a
//     killed million-wearer sweep resumes from its last committed block
//     (iobfleet -out/-resume) and re-derives a bit-identical
//     fingerprint; format v1 stores each wearer's cell and foreign load
//     so coupled sweeps replay exactly, format v2 adds the equilibrium
//     load and fixed-point iteration columns feedback sweeps replay
//     from, and format v3 adds kinded frames: per-node in-run time
//     series (battery charge, queue depth, link PER, collision rate,
//     sampled on the TDMA superframe tick into bannet.Report.Series
//     when bannet.Config.SeriesEvery is set, without perturbing the
//     simulation — iobfleet -series) compressed
//     with delta-of-delta timestamps and XOR floats, plus a trailing
//     label index that iobtrace query prunes with when aggregating a
//     metric over a time/cell/node range;
//   - internal/figures — generators for every figure and table in the
//     paper (also exposed through cmd/iobfig and the root benchmarks).
package wiban
