// Command iobfleet runs a population of independent body-area-network
// simulations in parallel — a fleet of simulated wearers with spread-out
// channel conditions, batteries, harvesters and device mixes — and prints
// fleet-level statistics plus engine throughput.
//
// Usage:
//
//	iobfleet -wearers 1000 -dur 600                  # 1000 wearers, 10 min each
//	iobfleet -wearers 1000 -workers 1                # force serial (invariance check)
//	iobfleet -wearers 500 -ble-frac 0.5 -drain       # half the fleet on BLE, live batteries
//	iobfleet -wearers 1000000 -out sweep.wtl         # stream records to a telemetry store
//	iobfleet -wearers 1000000 -out sweep.wtl -resume # continue a killed sweep
//	iobfleet -wearers 1000 -series 1 -out sweep.wtl  # sample per-node time series at 1 s cadence
//	iobfleet -wearers 1000 -cells 50 -ble-frac 0.5   # spectrum-coupled: 20 wearers/cell
//	iobfleet -wearers 1000 -density 40 -ble-frac 1   # same, by target wearers-per-cell
//	iobfleet -wearers 1000 -density 40 -feedback     # equilibrium interference (retry feedback)
//	iobfleet -density 40 -feedback -max-iters 16 -tol 10  # coarser fixed point
//	iobfleet -cpuprofile cpu.pb.gz -memprofile mem.pb.gz  # pprof the sweep
//
// The aggregate report is a pure function of -seed: reruns with any
// -workers value print identical statistics (only the throughput line
// varies), and the fingerprint line makes that easy to diff. Aggregation
// streams: memory stays bounded by the worker count, not the population.
//
// With -cells (or -density, which derives the cell count from the
// population), wearers stop being independent: each hashes into a
// spatial cell, the cells' offered RF load is reduced in a deterministic
// first phase, and every RF node's loss is inflated by its cell's
// congestion (wiban/internal/spectrum) while EQS/MQS body-channel links
// ride free. A density sweep reproduces the paper's RF-congestion story
// at fleet scale — rerun with rising -density and watch the RF arm's
// delivery rate and battery life fall while the Wi-R arm holds:
//
//	for d in 1 4 16 64; do iobfleet -wearers 1024 -density $d -ble-frac 0.5; done
//
// Two-phase runs keep every determinism contract: the fingerprint is
// byte-identical for any -workers value and across kill/-resume.
//
// -feedback closes the collision→retry→offered-load loop: phase 1 solves
// a damped per-cell fixed point (collisions inflate retransmissions,
// retransmissions inflate airtime, airtime inflates collisions) and the
// per-wearer kernels see the *equilibrium* foreign load instead of the
// first-order offered traffic — the self-consistent congestion a dense
// venue actually settles at. -max-iters and -tol bound the iteration
// (both must be ≥ 1); per-cell convergence shows up in the report's
// feedback line and in iobtrace cells. Feedback stores are format v2;
// without -feedback, output is bit-identical to the first-order engine
// and existing v1 stores resume unchanged.
//
// -series samples every node's in-run state — battery charge, queue
// depth, per-window link PER and collision rate — at the given cadence
// (clamped up to the TDMA superframe) and persists the samples in the
// store's v3 series frames, queryable with iobtrace query. Sampling adds
// no kernel events and draws no randomness, so the report, fingerprint
// and every determinism contract are unchanged; without -series the
// store stays byte-identical to the previous (v2) format.
//
// With -out, every wearer's record is also appended to a telemetry store
// (block-compressed, CRC-protected, checkpointed — see
// wiban/internal/telemetry). If the sweep is killed, rerunning with
// -resume and the same flags restores the checkpoint, feeds the
// committed records to the aggregator in the one pass that verifies
// them, and simulates only the remaining wearers; the final report and
// fingerprint are bit-identical to an uninterrupted run. -resume with
// flags that describe a different sweep exits 2 and leaves the store and
// its checkpoint untouched. Inspect, verify or re-aggregate a store with
// the iobtrace command.
//
// A streaming sweep also stops gracefully: SIGINT or SIGTERM aborts at
// the next record boundary, keeps the store's checkpoint, prints the
// -resume invocation and exits 0 — Ctrl-C on an hours-long sweep parks
// it instead of killing it. Without -out, signals kill the process as
// usual. For an always-on service with the same contract (plus metrics
// and progress streaming), see the iobfleetd daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"wiban/internal/spectrum"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
)

func main() {
	var (
		wearers = flag.Int("wearers", 1000, "population size")
		seed    = flag.Int64("seed", 42, "fleet seed (drives every per-wearer seed)")
		durSec  = flag.Float64("dur", 600, "simulated span per wearer in seconds")
		workers = flag.Int("workers", 0, "worker goroutines (0 = NumCPU)")

		perSpread  = flag.Float64("per-spread", 0.5, "packet-error-rate spread across wearers [0,1]")
		battSpread = flag.Float64("batt-spread", 0.3, "battery-capacity spread across wearers [0,1)")
		harvProb   = flag.Float64("harvest-prob", 0.3, "probability an unharvested node gains a harvester")
		dropProb   = flag.Float64("drop-prob", 0.25, "probability each non-primary node is absent")
		bleFrac    = flag.Float64("ble-frac", 0.25, "fraction of wearers on BLE 4.2 radios")
		drain      = flag.Bool("drain", false, "enable in-run battery drain and node death")

		cells   = flag.Int("cells", 0, "spatial cells sharing RF spectrum (0 = uncoupled wearers)")
		density = flag.Float64("density", 0, "target wearers per cell; derives -cells = ceil(wearers/density)")

		feedback = flag.Bool("feedback", false, "close the collision→retry→offered-load loop (fixed-point phase 1; needs -cells or -density)")
		maxIters = flag.Int("max-iters", spectrum.DefaultMaxIters, "feedback fixed-point iteration cap per cell (≥ 1)")
		tolPPM   = flag.Int64("tol", spectrum.DefaultTolPPM, "feedback fixed-point convergence tolerance in PPM (≥ 1)")

		seriesSec = flag.Float64("series", 0, "sample every node's in-run state at this cadence in simulated seconds (0 = off; stores become format v3)")

		outPath   = flag.String("out", "", "stream per-wearer records to a telemetry store at this path")
		resume    = flag.Bool("resume", false, "resume the interrupted sweep checkpointed in -out")
		force     = flag.Bool("force", false, "allow -out to overwrite an existing telemetry store")
		blockSize = flag.Int("block-size", 0, "telemetry records per committed block (0 = default)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (post-sweep, after GC) to this path")
	)
	flag.Parse()
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "iobfleet: "+format+"\n", args...)
		os.Exit(code)
	}

	spec := sweep.Spec{
		Wearers:       *wearers,
		Seed:          *seed,
		DurSeconds:    *durSec,
		Workers:       max(*workers, 0), // any non-positive count means NumCPU
		PERSpread:     *perSpread,
		BatterySpread: *battSpread,
		HarvesterProb: *harvProb,
		DropNodeProb:  *dropProb,
		BLEFraction:   *bleFrac,
		Drain:         *drain,
		Cells:         *cells,
		Density:       *density,
		Feedback:      *feedback,
		SeriesSeconds: *seriesSec,
	}
	// The solver knobs exist only with -feedback, and unlike a spec's 0
	// (= the default) an explicit 0 on the command line is a usage error.
	if *feedback {
		if *maxIters <= 0 {
			fail(2, "usage: -max-iters must be a positive iteration cap, got %d", *maxIters)
		}
		if *tolPPM <= 0 {
			fail(2, "usage: -tol must be a positive PPM tolerance, got %d", *tolPPM)
		}
		spec.MaxIters, spec.TolPPM = *maxIters, *tolPPM
	}
	if *outPath != "" {
		spec.BlockSize = *blockSize // a store knob: without -out it is ignored
	} else if *resume {
		fail(2, "-resume requires -out")
	}
	if err := spec.Normalize(); err != nil {
		fail(2, "usage: %v", err)
	}
	f, meta, err := spec.Build(nil)
	if err != nil {
		fail(2, "%v", err)
	}
	// A forgotten -resume must not vaporize a checkpointed sweep: Create
	// truncates, so refuse to clobber an existing store.
	if *outPath != "" && !*resume && !*force {
		if st, serr := os.Stat(*outPath); serr == nil && st.Size() > 0 {
			fail(2, "%s already exists; continue it with -resume, or overwrite it with -force", *outPath)
		}
	}
	sw, err := sweep.Open(f, meta, *outPath, *resume)
	if errors.Is(err, telemetry.ErrMismatch) {
		fail(2, "%v", err)
	} else if err != nil {
		fail(1, "%v", err)
	}
	if *resume {
		fmt.Printf("resuming %s at wearer %d/%d (%d committed blocks)\n",
			*outPath, f.Start, f.Wearers, sw.Store.Blocks())
	}

	// With a store attached, SIGINT/SIGTERM become a graceful stop instead
	// of a kill: the sweep ends at the next record boundary and everything
	// committed so far stays a valid checkpointed prefix. Without -out
	// there is nothing to save, so the default die-on-signal behavior
	// stands.
	ctx := context.Background()
	if sw.Store != nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}

	// Profiling brackets exactly the sweep (flag parsing, store setup and
	// report rendering stay outside the CPU window), so future perf PRs
	// can run `iobfleet -cpuprofile cpu.pb.gz` instead of hand-rolling a
	// harness around the engine.
	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fail(1, "%v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fail(1, "cpu profile: %v", err)
		}
		defer pf.Close()
	}
	// The heap-profile file is opened before the sweep too: a typo'd path
	// must fail in milliseconds, not after an hours-long run whose final
	// uncommitted block it would then discard.
	var memFile *os.File
	if *memProfile != "" {
		if memFile, err = os.Create(*memProfile); err != nil {
			fail(1, "%v", err)
		}
	}
	perf, err := sw.Run(ctx)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		// Run returns the context's cause exactly when a signal stopped it.
		// A graceful stop is a success: the sweep is parked, not dead.
		if errors.Is(err, context.Cause(ctx)) {
			fmt.Printf("interrupted: %s checkpointed at wearer %d/%d (%d blocks)\n",
				*outPath, sw.Store.Checkpointed(), f.Wearers, sw.Store.Blocks())
			fmt.Printf("continue with: iobfleet -resume -out %s <same flags>\n", *outPath)
			return
		}
		fail(1, "%v", err)
	}
	if memFile != nil {
		runtime.GC() // settle the heap so the profile shows retention, not garbage
		if perr := pprof.WriteHeapProfile(memFile); perr != nil {
			fail(1, "heap profile: %v", perr)
		}
		if perr := memFile.Close(); perr != nil {
			fail(1, "heap profile: %v", perr)
		}
	}
	rep := sw.Agg.Report()
	fmt.Println(rep)
	fmt.Printf("  engine:    %v\n", perf)
	if sw.Store != nil {
		fmt.Printf("  telemetry: %s (%d blocks)\n", *outPath, sw.Store.Blocks())
	}
	fmt.Printf("  fingerprint %s (seed %d)\n", rep.Fingerprint()[:16], *seed)
}
