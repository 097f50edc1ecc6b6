// Package fleet is the population-scale simulation engine: it runs N
// body-area-network simulations (one simulated wearer each) in parallel
// across a worker pool and merges the per-wearer reports into fleet-level
// statistics. Wearers are fully independent by default; with a Coupling
// they contend for shared RF spectrum through the two-phase engine below.
//
// # Two-phase spectrum coupling
//
// A Coupling makes the sweep density-aware without surrendering any
// determinism contract. Phase 1 computes each spatial cell's offered RF
// load from the scenarios alone: cell assignment is a pure function of
// the wearer's scenario seed and loads accumulate in exact integer PPM
// (wiban/internal/spectrum), so the reduction is order-independent and
// bit-identical for any worker count. Phase 2 is the ordinary per-wearer
// worker pool, with each RF node's CollisionPER stamped from its cell's
// foreign load before the kernel runs; EQS/MQS nodes are untouched.
// Resume recomputes phase 1 over the full population regardless of
// Start, so a resumed coupled sweep reproduces the interrupted one
// exactly (the telemetry store's v1 format persists each wearer's cell
// and foreign load for replay). With Coupling.Feedback phase 1
// additionally solves each cell's collision→retry→offered-load fixed
// point (spectrum.Equilibrium) — a pure single-threaded function of the
// gathered loads, so every contract above carries over and the v2
// telemetry format persists the equilibrium columns.
//
// # Determinism and the seed-derivation contract
//
// A fleet run is reproducible from a single fleet seed, independent of the
// worker count. Each wearer w gets two decorrelated child seeds via
// splitmix64 (desim.DeriveSeed):
//
//	scenario seed   = desim.DeriveSeed(fleetSeed, 2*w)     — drives the
//	    scenario generator's perturbations (PER spread, battery spread,
//	    harvester assignment, node mix, radio choice);
//	simulation seed = desim.DeriveSeed(fleetSeed, 2*w+1)   — overrides
//	    Config.Seed and drives the bannet kernel's randomness.
//
// Each wearer runs on its own bannet kernel with its own RNG, so runs
// share no mutable state and the schedule of workers cannot influence any
// outcome. Completed reports are handed to the run's Sink in wearer-index
// order through a bounded reorder window, so floating-point accumulation
// order is fixed too. The invariant — same fleet seed ⇒ byte-identical
// aggregate report for any worker count — is pinned by the
// parallelism-invariance tests and must be preserved by future changes;
// in particular the stream-index assignment above is part of the replay
// contract and must never be renumbered.
//
// # Streaming aggregation and memory
//
// The default path (Run, Stream) never holds more than the reorder
// window (a small multiple of the worker count) of per-wearer reports:
// each report is flattened to a telemetry.Record, folded into the
// StreamAggregator and/or appended to a telemetry store, then dropped —
// a million-wearer sweep aggregates in O(workers) memory. Setting Start
// resumes an interrupted sweep: wearers
// below Start are skipped (their records replay from the telemetry
// store via Replay), and because per-wearer seeds derive from absolute
// wearer indices the resumed sweep is bit-identical to an uninterrupted
// one.
//
// # Zero-allocation steady state
//
// The per-wearer hot path allocates nothing once warm. Each worker owns
// a scratch — a pooled desim.NewRand generator reseeded per wearer (the
// stream of a fresh rand.NewSource; the reseed is O(1) and builds only
// the state words a stream reads), a long-lived bannet.Sim kernel arena
// recycled with Reset/RunInto, and a node buffer interference stamping
// copies into — and the reorder window circulates a fixed pool of output
// buffers between workers and the in-order consumer. Sinks receive
// records on a borrow-until-return contract (see Sink), so one record
// buffer serves the whole sweep. The coupled engine's phase 1 runs the
// same scratch through a load pass (Fleet.Loads, Generator.LoadScenario)
// instead of regenerating full scenarios. What remains is scenario
// generation itself — a node slice and battery clones per wearer,
// pinned by TestFleetSteadyStateAllocBudget — plus O(workers) per-sweep
// setup; allocation budgets are recorded in BENCH_fleet.json and
// enforced by CI's allocation-budget gate. None of this moves a byte of
// output: seeding and emit order are unchanged, and
// TestFreshKernelsMatchesReuse pins the recycled engine to one-wearer
// fleets that each start from fresh kernels.
package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wiban/internal/bannet"
	"wiban/internal/desim"
	"wiban/internal/spectrum"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// Scenario produces the simulation configuration for one wearer. The rng
// is private to the wearer and deterministically seeded from the fleet
// seed; all perturbation randomness must come from it. The engine
// overwrites Config.Seed with the wearer's simulation seed and
// Config.SeriesEvery with Fleet.Series, so a Scenario need not set
// them. Scenarios are called concurrently from worker goroutines and
// must not mutate shared state. The engine consumes the
// returned config — including cfg.Nodes — before the same worker's next
// call, and never mutates it in place (interference stamping copies the
// node slice first), so a scenario may hand out slices backed by shared
// read-only storage.
type Scenario func(wearer int, rng *rand.Rand) (bannet.Config, error)

// LoadScenario is the coupled engine's optional phase-1 fast path: it
// appends the wearer's radiative node loads (first-order offered airtime
// plus retry budget, see spectrum.NodeLoad) to dst and returns the
// extended slice, without building the full bannet.Config. It must be
// behaviorally identical to the fleet's Scenario — same RNG consumption,
// same surviving nodes, same effective radios — or phase 1 and phase 2
// would silently explore different populations; Generator.LoadScenario
// derives both from one draw block, and the equivalence is pinned by
// test. A LoadScenario is called concurrently from worker goroutines and
// must not mutate shared state.
type LoadScenario func(wearer int, rng *rand.Rand, dst []spectrum.NodeLoad) ([]spectrum.NodeLoad, error)

// Fleet describes a population sweep.
type Fleet struct {
	// Wearers is the population size (one independent simulation each).
	Wearers int
	// Seed is the fleet seed every per-wearer seed derives from.
	Seed int64
	// Scenario builds each wearer's network.
	Scenario Scenario
	// Span is the simulated span per wearer.
	Span units.Duration
	// Workers bounds parallelism; <= 0 means runtime.NumCPU().
	Workers int
	// Start is the first wearer to simulate (wearers [Start, End) run,
	// where End 0 means Wearers). Non-zero when resuming an interrupted
	// sweep whose earlier records replay from a telemetry store, or when
	// running a shard of a distributed sweep; seeds still derive from
	// absolute wearer indices, so a resumed or sharded sweep reproduces
	// the corresponding slice of an uninterrupted full run exactly.
	Start int
	// End is the exclusive upper bound of the wearer range; 0 means
	// Wearers. A shard of a distributed sweep sets Start/End to its
	// contiguous sub-range — everything else (seeding, emit order, the
	// coupled engine's full-population phase 1) is unchanged, which is
	// what keeps shard boundaries invisible in the merged output.
	End int
	// Coupling, when non-nil, runs the two-phase spectrum-coupled
	// engine: wearers share RF spectrum inside spatial cells and each RF
	// node's loss is inflated by its cell's offered load (see Coupling).
	// Nil preserves the original fully-independent sweep.
	Coupling *Coupling
	// Loads, when non-nil, replaces full scenario generation in the
	// coupled engine's phase 1 with an allocation-free load pass (see
	// LoadScenario). Optional: phase 1 falls back to Scenario when nil.
	// It MUST be load-equivalent to Scenario; the engine trusts it.
	Loads LoadScenario
	// Series, when positive, samples every node's in-run state (battery
	// charge, queue depth, per-window link PER and collision rate) at
	// this cadence (each wearer's bannet.Config.SeriesEvery) and
	// attaches the samples to each wearer's telemetry record
	// (Record.Series). Sampling rides the kernel's existing superframe
	// tick — no extra events, no RNG draws — so enabling it
	// changes nothing about the simulated outcomes: Report fields and
	// fleet fingerprints are identical with Series on or off. Zero (the
	// default) disables sampling. Sinks persisting series need a
	// telemetry store with Meta.Series() enabled (format v3).
	Series units.Duration

	// Stats, when non-nil, receives live atomic instrumentation updates
	// from the hot path: completed wearers, kernel events, phase-1
	// gather/solve time, equilibrium iterations and the reorder-window
	// depth (see Stats). Nil costs nothing; non-nil costs a few atomic
	// adds per wearer and changes no simulated outcome.
	Stats *Stats
}

// Perf captures wall-clock throughput of a fleet run. It is reported
// separately from the aggregate Report because elapsed time varies run to
// run while the Report is bit-reproducible.
type Perf struct {
	Workers      int
	Elapsed      time.Duration
	RunsPerSec   float64
	EventsPerSec float64
	// MaxPending is the peak occupancy of the reorder window — the most
	// completed-but-not-yet-consumed reports held at once. It is bounded
	// by the window size (a small multiple of Workers), never by fleet
	// size; the streaming-memory tests assert exactly that.
	MaxPending int
	// Phase1 is the wall-clock cost of the offered-load reduction of a
	// spectrum-coupled sweep (zero when uncoupled). It is included in
	// Elapsed; the two-phase overhead budget in BENCH_fleet.json tracks
	// it staying a small fraction of the simulation phase.
	Phase1 time.Duration
}

func (p Perf) String() string {
	s := fmt.Sprintf("%d workers, %v elapsed, %.1f runs/s, %.3g events/s, window peak %d",
		p.Workers, p.Elapsed.Round(time.Millisecond), p.RunsPerSec, p.EventsPerSec, p.MaxPending)
	if p.Phase1 > 0 {
		s += fmt.Sprintf(", load phase %v", p.Phase1.Round(time.Millisecond))
	}
	return s
}

// Run executes the sweep through the default bounded-memory path: each
// completed report streams into a StreamAggregator and is dropped, so
// memory is O(workers) regardless of population. It returns the
// deterministic aggregate report plus wall-clock performance counters.
// If any wearer's scenario or simulation fails, Run reports the failure
// at the lowest wearer index (independent of worker scheduling) and no
// report.
func (f *Fleet) Run() (*Report, Perf, error) {
	agg := NewStreamAggregator(f.Span)
	perf, err := f.Stream(agg)
	if err != nil {
		return nil, Perf{}, err
	}
	return agg.Report(), perf, nil
}

// Stream executes wearers [Start, End) and feeds each one's
// telemetry record to sink in strict wearer-index order. Tee the
// telemetry store's Writer with a StreamAggregator to persist and
// aggregate in one pass. A sink error aborts the sweep (records already
// consumed form a valid committed prefix).
//
// Records are borrowed: the engine reuses one record buffer (including
// its Nodes slice) and each pooled report's Series array across Consume
// calls, so a sink must copy whatever it keeps past the call — see the
// Sink contract.
func (f *Fleet) Stream(sink Sink) (Perf, error) {
	var rec telemetry.Record
	return f.stream(func(w int, out *wearerOut) error {
		recordInto(&rec, w, &out.rep)
		rec.Cell = out.cell
		rec.ForeignLoadPPM = out.foreignPPM
		rec.EqForeignLoadPPM = out.eqForeignPPM
		rec.FeedbackIters = out.iters
		return sink.Consume(rec)
	})
}

// end is the exclusive upper bound of the fleet's wearer range: End,
// with 0 meaning the whole population.
func (f *Fleet) end() int {
	if f.End > 0 {
		return f.End
	}
	return f.Wearers
}

// validate rejects a fleet no run can start from, before any
// work is dispatched.
func (f *Fleet) validate() error {
	if f.Wearers <= 0 {
		return fmt.Errorf("fleet: non-positive population %d", f.Wearers)
	}
	if f.Scenario == nil {
		return fmt.Errorf("fleet: nil scenario")
	}
	if f.Span <= 0 {
		return fmt.Errorf("fleet: non-positive span")
	}
	if f.End < 0 || f.End > f.Wearers {
		return fmt.Errorf("fleet: end index %d outside population [0, %d]", f.End, f.Wearers)
	}
	if end := f.end(); f.Start < 0 || f.Start > end {
		return fmt.Errorf("fleet: start index %d outside range [0, %d]", f.Start, end)
	}
	if f.Coupling != nil {
		return f.Coupling.validate()
	}
	return nil
}

// wearerOut is one completed wearer simulation plus its spectrum
// placement (cell −1 / load 0 on uncoupled sweeps; the equilibrium
// fields stay 0 unless the coupling closes the feedback loop). The
// structs are pooled: the engine circulates exactly `window` of them
// between workers and the in-order consumer, so the per-wearer report
// storage — rep.Nodes and, when Fleet.Series is set, the sampled
// rep.Series — is reused instead of reallocated; the pool doubles as
// the reorder window's backpressure tokens.
type wearerOut struct {
	rep          bannet.Report
	cell         int
	foreignPPM   int64
	eqForeignPPM int64
	iters        int
}

// workerScratch is one worker goroutine's private reusable state: the
// per-wearer scenario RNG (a desim.NewRand generator, reseeded instead of
// reallocated: its state is a ~5 KB table, and a reseed builds only the
// words the scenario or load stream reads), the long-lived simulation
// kernel arena, and the node-slice buffer interference stamping copies
// into. Nothing in it survives a wearer except capacity.
type workerScratch struct {
	rng   *rand.Rand
	sim   *bannet.Sim
	nodes []bannet.NodeConfig
	loads []spectrum.NodeLoad
}

func newWorkerScratch() *workerScratch {
	return &workerScratch{rng: desim.NewRand(0)}
}

// stream is the engine. In coupled mode it first runs phase 1 — the
// deterministic per-cell offered-load reduction over the whole population
// — then phase 2 below; uncoupled sweeps skip straight to phase 2.
// Phase 2 is a worker pool over wearer indices with a bounded reorder
// window. Workers acquire a pooled output buffer (the window slot) before
// taking an index, and buffers recirculate only when the in-order
// consumer emits the report, so at most `window` completed reports exist
// at any instant — backpressure, not buffering, absorbs stragglers — and
// the same `window` buffers carry every report of the sweep. The emit
// callback borrows its wearerOut until it returns.
func (f *Fleet) stream(emit func(w int, out *wearerOut) error) (Perf, error) {
	if err := f.validate(); err != nil {
		return Perf{}, err
	}
	end := f.end()
	count := end - f.Start
	if count == 0 {
		// Nothing to simulate (a resume of a complete sweep): skip the
		// load phase too — interference only matters to running kernels.
		return Perf{}, nil
	}
	start := time.Now()
	var loads *phase1
	var phase1Cost time.Duration
	if f.Coupling != nil {
		var err error
		if loads, err = f.offeredLoads(f.effectiveWorkers()); err != nil {
			return Perf{}, err
		}
		phase1Cost = time.Since(start)
	}
	workers := f.effectiveWorkers()
	if workers > count {
		workers = count
	}
	window := 4 * workers

	var (
		bufs = make(chan *wearerOut, window)
		done = make(chan struct{})
		next atomic.Int64
		wg   sync.WaitGroup

		mu         sync.Mutex
		pending    = make(map[int]*wearerOut, window)
		nextEmit   = f.Start
		maxPending int
		events     uint64
		failIdx    = -1
		failErr    error
	)
	for k := 0; k < window; k++ {
		bufs <- &wearerOut{}
	}
	next.Store(int64(f.Start))
	// fail records the lowest-index failure and halts dispatch. The
	// lowest recorded index is scheduling-independent: indices are
	// dispatched in order, and every index below the first failure was
	// dispatched — and runs to completion — before workers observe done.
	fail := func(i int, err error) {
		mu.Lock()
		if failIdx == -1 || i < failIdx {
			failIdx, failErr = i, err
		}
		select {
		case <-done:
		default:
			close(done) // under mu, so exactly one closer
		}
		mu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := newWorkerScratch()
			for {
				var out *wearerOut
				select {
				case out = <-bufs:
				case <-done:
					return
				}
				i := int(next.Add(1) - 1)
				if i >= end {
					bufs <- out // hand the buffer back: nothing will be emitted for it
					return
				}
				if err := f.runWearer(i, loads, scratch, out); err != nil {
					fail(i, fmt.Errorf("fleet: wearer %d: %w", i, err))
					return
				}
				mu.Lock()
				pending[i] = out
				f.Stats.windowAdd(1)
				if len(pending) > maxPending {
					maxPending = len(pending)
				}
				for {
					r, ok := pending[nextEmit]
					if !ok {
						break
					}
					delete(pending, nextEmit)
					f.Stats.windowAdd(-1)
					if err := emit(nextEmit, r); err != nil {
						idx := nextEmit
						mu.Unlock()
						fail(idx, fmt.Errorf("fleet: sink at wearer %d: %w", idx, err))
						return
					}
					events += r.rep.Events
					f.Stats.wearerDone(r.rep.Events)
					nextEmit++
					bufs <- r // the emitted report's buffer frees a waiting worker
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// A failed or aborted sweep strands its parked reports: release them
	// from the gauge so WindowDepth returns to its pre-sweep value.
	f.Stats.windowAdd(-int64(len(pending)))

	if failIdx != -1 {
		return Perf{}, failErr
	}
	perf := Perf{Workers: workers, Elapsed: elapsed, MaxPending: maxPending, Phase1: phase1Cost}
	if s := elapsed.Seconds(); s > 0 {
		perf.RunsPerSec = float64(count) / s
		perf.EventsPerSec = float64(events) / s
	}
	return perf, nil
}

// runWearer builds and runs one wearer's simulation shard into the
// pooled output buffer. In coupled mode (loads non-nil) the scenario's
// RF nodes first get their cell's collision probability stamped on; the
// scenario's own RNG discipline is untouched, so a coupled and an
// uncoupled sweep of the same fleet seed explore the identical
// population and differ only in interference.
//
// The hot path is allocation-free in steady state: the scratch RNG is
// reseeded (the stream of a fresh rand.NewSource of that seed), the
// interference stamp reuses the scratch node buffer, and the kernel
// arena is Reset instead of rebuilt. Seeding is unchanged from the
// fresh-everything formulation, so fingerprints are bit-identical.
func (f *Fleet) runWearer(w int, loads *phase1, sc *workerScratch, out *wearerOut) error {
	sc.rng.Seed(desim.DeriveSeed(f.Seed, 2*uint64(w)))
	cfg, err := f.Scenario(w, sc.rng)
	if err != nil {
		return err
	}
	out.cell, out.foreignPPM, out.eqForeignPPM, out.iters = -1, 0, 0, 0
	if loads != nil {
		out.cell, out.foreignPPM, out.eqForeignPPM, out.iters = f.applyInterference(w, &cfg, loads, sc)
	}
	cfg.Seed = desim.DeriveSeed(f.Seed, 2*uint64(w)+1)
	cfg.SeriesEvery = f.Series
	if sc.sim == nil {
		if sc.sim, err = bannet.NewSim(cfg); err != nil {
			return err
		}
	} else if err = sc.sim.Reset(cfg); err != nil {
		return err
	}
	return sc.sim.RunInto(f.Span, &out.rep)
}
