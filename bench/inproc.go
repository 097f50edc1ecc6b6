package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"wiban/internal/bannet"
	"wiban/internal/desim"
	"wiban/internal/fleet"
	"wiban/internal/spectrum"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// sweepSpec is one population sweep. The spreads not listed are
// iobfleet's defaults: PER 0.5, battery 0.3, harvester 0.3, node drop 0.25.
type sweepSpec struct {
	wearers   int
	span      float64 // simulated seconds per wearer
	ble       float64 // fraction of wearers on BLE radios
	density   float64 // wearers per spectrum cell; 0 leaves wearers uncoupled
	feedback  bool
	series    float64 // series sample cadence in simulated seconds; 0 = off
	blockSize int     // telemetry records per block; 0 = no store
}

func (s sweepSpec) generator() *fleet.Generator {
	return &fleet.Generator{Base: fleet.DefaultBase(), PERSpread: 0.5, BatterySpread: 0.3,
		HarvesterProb: 0.3, DropNodeProb: 0.25, BLEFraction: s.ble}
}

func (s sweepSpec) cells() int {
	if s.density == 0 {
		return 0
	}
	return int(math.Ceil(float64(s.wearers) / s.density))
}

// build composes the fleet and store metadata the way iobfleet and
// iobfleetd do, so an in-process store is byte-identical to the daemon's.
func (s sweepSpec) build(seed int64, workers int) (*fleet.Fleet, telemetry.Meta) {
	gen := s.generator()
	f := &fleet.Fleet{Wearers: s.wearers, Seed: seed, Scenario: gen.Scenario(), Loads: gen.LoadScenario(),
		Span: units.Duration(s.span), Workers: workers, Series: units.Duration(s.series)}
	tag := gen.Tag()
	if cells := s.cells(); cells > 0 {
		f.Coupling = &fleet.Coupling{Cells: cells, Model: spectrum.Default(), Feedback: s.feedback}
		tag += ";" + f.Coupling.Tag()
	}
	meta := telemetry.Meta{FleetSeed: seed, Wearers: s.wearers, SpanSeconds: s.span, Scenario: tag,
		BlockSize: s.blockSize, Version: telemetry.CreateVersion(s.series > 0), Cells: s.cells(),
		Feedback: s.feedback && s.cells() > 0, SeriesCadenceSeconds: s.series}
	return f, meta
}

// sweepOut is what one sweep produced. elapsed runs from the Stream call
// to the store's Close.
type sweepOut struct {
	elapsed     time.Duration
	perf        fleet.Perf
	events      uint64
	fingerprint string
	blocks      int
	bytes       int64
	digest      string    // SHA-256 of the store file
	run         *traceRun // the spans, when traced
}

// runSweep runs s with the given worker count, streaming into a
// StreamAggregator and, when store is not empty, a telemetry store at that
// path. With tr set, every layer call is recorded as a span of a new
// traced run (one worker only: the spans assume calls run one after
// another).
func runSweep(s sweepSpec, seed int64, workers int, store string, t *tracer, stats *fleet.Stats) (sweepOut, error) {
	f, meta := s.build(seed, workers)
	f.Stats = stats
	agg := fleet.NewStreamAggregator(f.Span)
	var w *telemetry.Writer
	if store != "" {
		var err error
		if w, err = telemetry.Create(store, meta); err != nil {
			return sweepOut{}, err
		}
	}
	var sink fleet.Sink = agg
	if w != nil {
		sink = fleet.Tee(w, agg)
	}
	var tr *traceRun
	if t != nil {
		tr = t.begin("traced", fleetEngine, 4*s.wearers+2)
		sink = instrument(f, tr, w, agg)
	}
	start := time.Now()
	perf, err := f.Stream(sink)
	if err != nil {
		if w != nil {
			w.Abort()
		}
		return sweepOut{}, err
	}
	if tr != nil && perf.Phase1 > 0 {
		// Phase 1 runs inside Stream before the first wearer; Perf.Phase1
		// is its length.
		tr.add(spectrumPhase1, tr.spans[0].start, tr.spans[0].start+int64(perf.Phase1))
	}
	out := sweepOut{perf: perf, run: tr}
	if w != nil {
		var c0 int64
		if tr != nil {
			c0 = tr.t.now()
		}
		if err := w.Close(); err != nil {
			return sweepOut{}, err
		}
		if tr != nil {
			tr.add(telemetryClose, c0, tr.t.now())
		}
		out.blocks = w.Blocks()
	}
	out.elapsed = time.Since(start)
	if tr != nil {
		out.elapsed = tr.end()
	}
	rep := agg.Report()
	out.events, out.fingerprint = rep.Events, rep.Fingerprint()
	if w != nil {
		if out.bytes, out.digest, err = digest(store); err != nil {
			return sweepOut{}, err
		}
	}
	return out, nil
}

// instrument wraps the fleet's scenario and the sinks so each call becomes
// a span: fleet.scenario around Scenario, bannet.kernel from the scenario's
// return to the sink's entry (the kernel run, interference stamping and
// record flattening), then telemetry.encode_commit and fleet.aggregate.
func instrument(f *fleet.Fleet, tr *traceRun, w *telemetry.Writer, agg *fleet.StreamAggregator) fleet.Sink {
	var kernelFrom int64
	scenario := f.Scenario
	f.Scenario = func(wearer int, rng *rand.Rand) (bannet.Config, error) {
		t0 := tr.t.now()
		cfg, err := scenario(wearer, rng)
		kernelFrom = tr.t.now()
		tr.add(fleetScenario, t0, kernelFrom)
		return cfg, err
	}
	timed := func(l layer, s fleet.Sink) fleet.Sink {
		return fleet.SinkFunc(func(rec telemetry.Record) error {
			t0 := tr.t.now()
			err := s.Consume(rec)
			tr.add(l, t0, tr.t.now())
			return err
		})
	}
	sink := timed(fleetAggregate, agg)
	if w != nil {
		sink = fleet.Tee(timed(telemetryEncodeCommit, w), sink)
	}
	return fleet.SinkFunc(func(rec telemetry.Record) error {
		tr.add(bannetKernel, kernelFrom, tr.t.now())
		return sink.Consume(rec)
	})
}

// digest returns a file's size and SHA-256.
func digest(path string) (int64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, "", err
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}

// removeStore deletes a store and its checkpoint sidecar.
func removeStore(path string) {
	os.Remove(path)
	os.Remove(telemetry.CheckpointPath(path))
}

// queryWindows draws n series queries from the seed: four metrics over
// the same time window and node filter, window after window.
func queryWindows(seed int64, span float64, n int) []telemetry.Query {
	rng := rand.New(rand.NewSource(desim.DeriveSeed(seed, 0)))
	var qs []telemetry.Query
	for len(qs) < n {
		from := rng.Int63n(int64(span * 1000 / 2))
		to := from + 5000 + rng.Int63n(25000)
		node := rng.Intn(4) - 1 // -1: every node
		for _, m := range []string{"charge", "queue", "per", "collisions"} {
			if len(qs) < n {
				qs = append(qs, telemetry.Query{Metric: m, FromMS: from, ToMS: to, Cell: -1, Node: node})
			}
		}
	}
	return qs
}

// readBack is what reading a finished store gave.
type readBack struct {
	queryMS     []float64
	answers     []string // one per query, bit-exact
	replayFP    string   // fingerprint of the records replayed through a StreamAggregator
	replayPerS  float64  // records per second of Open + Replay
	replayTotal int
}

// readStore runs every query against the store, then replays it whole.
// Each read starts from a settled heap, like a one-shot iobtrace process.
func readStore(path string, span float64, qs []telemetry.Query) (readBack, error) {
	var rb readBack
	for _, q := range qs {
		debug.FreeOSMemory()
		t0 := time.Now()
		st, err := telemetry.QueryStore(path, q)
		if err != nil {
			return rb, err
		}
		rb.queryMS = append(rb.queryMS, float64(time.Since(t0))/1e6)
		rb.answers = append(rb.answers, fmt.Sprintf("%d %d %x %x %x %x", st.Points, st.Gaps,
			math.Float64bits(st.Sum), math.Float64bits(st.Min), math.Float64bits(st.Max),
			math.Float64bits(st.Percentile(50))))
	}
	debug.FreeOSMemory()
	t0 := time.Now()
	r, err := telemetry.Open(path)
	if err != nil {
		return rb, err
	}
	agg := fleet.NewStreamAggregator(units.Duration(span))
	n, err := fleet.Replay(r, agg)
	r.Close()
	if err != nil {
		return rb, err
	}
	rb.replayPerS = float64(n) / time.Since(t0).Seconds()
	rb.replayTotal = n
	rb.replayFP = agg.Report().Fingerprint()
	return rb, nil
}

// runInProcess is the child body of kernel, coupled and store-rw: set-up
// (repeated, to time it), timed reps at two workers, and with -trace 1
// the traced step at one worker.
func runInProcess(c config, p params, rec *recorder, tr *tracer, dir string) {
	s := p.sweep
	store := func(name string) string {
		if s.blockSize == 0 {
			return ""
		}
		return dir + "/" + name + ".wtl"
	}
	qs := queryWindows(c.seed, s.span, p.queries)

	warm := s
	warm.wearers = p.warm
	for i := 0; i < p.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = childStart
		}
		out, err := runSweep(warm, c.seed, 2, store("warm"), nil, nil)
		if !rec.op(err) {
			return
		}
		if out.digest != "" {
			_, err := readStore(store("warm"), s.span, qs)
			if !rec.op(err) {
				return
			}
			removeStore(store("warm"))
		}
		rec.add("setup_s", time.Since(t0).Seconds())
	}

	var first sweepOut
	var firstRead readBack
	var elapsed []float64
	rep := func(i int) bool {
		// The sweep starts from a settled heap, as a fresh iobfleet process
		// would, and its peak RSS is its own: a whole-run maximum swung by
		// several percent with GC timing, and the reads after the sweep stand
		// for separate iobtrace processes.
		debug.FreeOSMemory()
		if !rec.op(resetPeakRSS("self")) {
			return false
		}
		out, err := runSweep(s, c.seed, 2, store("rep"), nil, nil)
		if !rec.op(err) {
			return false
		}
		rss, err := peakRSSMB("self")
		if !rec.op(err) {
			return false
		}
		rec.add("peak_rss_mb", rss)
		elapsed = append(elapsed, out.elapsed.Seconds())
		rec.add("runs_per_s", float64(s.wearers)/out.elapsed.Seconds())
		rec.add("fleet.window_peak", float64(out.perf.MaxPending))
		rec.add("desim.events", float64(out.events))
		if i == 0 {
			first = out
		}
		rec.check(out.fingerprint == first.fingerprint, "rep %d fingerprint %s, rep 0 %s", i, out.fingerprint, first.fingerprint)
		rec.check(out.digest == first.digest, "rep %d store digest %s, rep 0 %s", i, out.digest, first.digest)
		if out.digest == "" {
			return true
		}
		rb, err := readStore(store("rep"), s.span, qs)
		if !rec.op(err) {
			return false
		}
		removeStore(store("rep"))
		if i == 0 {
			firstRead = rb
		}
		for _, ms := range rb.queryMS {
			rec.add("query_p50_ms", ms)
			rec.add("query_p90_ms", ms)
		}
		rec.add("telemetry.decode_records_per_s", rb.replayPerS)
		rec.add("telemetry.blocks", float64(out.blocks))
		rec.add("telemetry.store_bytes", float64(out.bytes))
		rec.check(rb.replayFP == out.fingerprint, "rep %d replay fingerprint %s, sweep %s", i, rb.replayFP, out.fingerprint)
		rec.check(rb.replayTotal == s.wearers, "rep %d replayed %d of %d records", i, rb.replayTotal, s.wearers)
		for k := range rb.answers {
			rec.check(rb.answers[k] == firstRead.answers[k], "rep %d query %d answered %s, rep 0 %s", i, k, rb.answers[k], firstRead.answers[k])
		}
		return true
	}
	start := time.Now()
	for i := 0; more(p, start, c.seconds, elapsed); i++ {
		if !rep(i) {
			return
		}
	}
	rec.fingerprint = first.fingerprint
	if c.trace {
		traceInProcess(c, s, rec, tr, store("trace"), first, median(elapsed))
	}
}

// tracePairs is how many untraced and traced one-worker runs the traced
// step makes. A single pair measured the tracing overhead anywhere from
// -1% to +9% on a 2-core host; two alternating pairs average that out
// while keeping a traced daemon-shards run well inside its time limit.
const tracePairs = 2

// traceInProcess runs s at one worker, untraced and traced in the order
// U T T U, so neither side always runs first. It checks every run
// against the two-worker reference and records the layer split of each
// traced run. It returns the last traced sweep.
func traceInProcess(c config, s sweepSpec, rec *recorder, tr *tracer, store string, ref sweepOut, twoWorkerS float64) (sweepOut, bool) {
	var untraced, traced []float64
	var last sweepOut
	for i := 0; i < 2*tracePairs; i++ {
		withTrace := i%4 == 1 || i%4 == 2
		var t *tracer
		var stats *fleet.Stats
		if withTrace {
			t, stats = tr, &fleet.Stats{}
		}
		out, err := runSweep(s, c.seed, 1, store, t, stats)
		if !rec.op(err) {
			return sweepOut{}, false
		}
		removeStore(store)
		rec.check(out.fingerprint == ref.fingerprint, "1-worker run %d fingerprint %s, 2-worker %s", i, out.fingerprint, ref.fingerprint)
		rec.check(out.digest == ref.digest, "1-worker run %d store digest %s, 2-worker %s", i, out.digest, ref.digest)
		if !withTrace {
			untraced = append(untraced, out.elapsed.Seconds())
			continue
		}
		traced = append(traced, out.elapsed.Seconds())
		recordLayers(rec, out)
		if s.cells() > 0 {
			rec.add("spectrum.gather_s", time.Duration(stats.Phase1GatherNS.Load()).Seconds())
			rec.add("spectrum.solve_s", time.Duration(stats.Phase1SolveNS.Load()).Seconds())
			if cells := stats.EquilibriumCells.Load(); cells > 0 {
				rec.add("spectrum.iters_per_cell", float64(stats.EquilibriumIters.Load())/float64(cells))
			}
		}
		last = out
	}
	rec.add("trace.overhead", median(traced)/median(untraced)-1)
	rec.add("fleet.parallel_efficiency", median(untraced)/(2*twoWorkerS))
	rec.add("desim.ns_per_event", probeDesim(c.seed))
	return last, true
}

// recordLayers turns one traced run's spans into layer metrics and checks
// that the layers' self times account for the traced elapsed time.
func recordLayers(rec *recorder, traced sweepOut) {
	self := selfTimes(traced.run.spans)
	elapsed := traced.elapsed.Seconds()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	rec.check(math.Abs(sum.Seconds()-elapsed) <= 0.01*elapsed,
		"span self times sum to %.6fs, traced elapsed %.6fs", sum.Seconds(), elapsed)
	sec := func(l layer) float64 { return self[l].Seconds() }
	kernel := sec(bannetKernel)
	rec.add("trace.elapsed_s", elapsed)
	rec.add("fleet.engine_s", sec(fleetEngine))
	rec.add("fleet.scenario_s", sec(fleetScenario))
	rec.add("fleet.aggregate_s", sec(fleetAggregate))
	rec.add("bannet.kernel_s", kernel)
	rec.add("bannet.kernel_share", kernel/elapsed)
	rec.add("bannet.ns_per_event", kernel*1e9/float64(traced.events))
	if phase1 := sec(spectrumPhase1); phase1 > 0 {
		rec.add("spectrum.phase1_s", phase1)
		rec.add("spectrum.phase1_share", phase1/elapsed)
	}
	if traced.digest != "" {
		enc, cl := sec(telemetryEncodeCommit), sec(telemetryClose)
		rec.add("telemetry.encode_commit_s", enc)
		rec.add("telemetry.close_s", cl)
		rec.add("telemetry.write_MBps", float64(traced.bytes)/(enc+cl)/1e6)
	}
}

// probeDesim times the event kernel alone through its public API: eight
// TDMA-like periodic slot ticks per 1 ms superframe, each scheduling a
// one-shot at a random delay, run for 2 million events. It returns the
// median host nanoseconds per event over three runs on one reset arena.
func probeDesim(seed int64) float64 {
	sim := desim.New(seed)
	rng := sim.Rand()
	oneShot := func() {}
	tick := func() { sim.After(desim.Time(rng.Int63n(int64(500*desim.Microsecond))), oneShot) }
	var ns []float64
	for i := 0; i < 3; i++ {
		sim.Reset(seed)
		for k := 0; k < 8; k++ {
			sim.Periodic(desim.Time(k)*125*desim.Microsecond, desim.Millisecond, tick)
		}
		t0 := time.Now()
		sim.RunUntil(125 * desim.Second)
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(sim.Executed()))
	}
	return median(ns)
}
