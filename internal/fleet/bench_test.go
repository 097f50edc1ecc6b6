package fleet

// Fleet-engine benchmarks: population sweeps at 1, 4 and NumCPU workers.
// The headline metrics are runs/s (wearer simulations per second) and
// events/s (discrete events per second across all shards); BENCH_fleet.json
// at the repo root records a baseline.

import (
	"runtime"
	"testing"

	"wiban/internal/units"
)

// benchFleet sweeps 200 wearers × 60 simulated seconds. Every fleet
// benchmark reports allocs (the zero-allocation kernel contract is a
// headline number here) and phase1-ms (0 when uncoupled) so the
// BENCH_fleet.json schema is uniform across engines.
func benchFleet(b *testing.B, workers int) {
	b.Helper()
	f := testFleet(200, workers, 42)
	f.Span = 60 * units.Second
	b.ReportAllocs()
	var last Perf
	for i := 0; i < b.N; i++ {
		_, perf, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = perf
	}
	b.ReportMetric(last.RunsPerSec, "runs/s")
	b.ReportMetric(last.EventsPerSec, "events/s")
	b.ReportMetric(last.Phase1.Seconds()*1e3, "phase1-ms")
}

func BenchmarkFleetWorkers1(b *testing.B) { benchFleet(b, 1) }
func BenchmarkFleetWorkers4(b *testing.B) { benchFleet(b, 4) }
func BenchmarkFleetWorkersNumCPU(b *testing.B) {
	b.Logf("NumCPU = %d", runtime.NumCPU())
	benchFleet(b, runtime.NumCPU())
}

// BenchmarkFleetInstrumented is the daemon-path benchmark: the identical
// workload to BenchmarkFleetWorkers4 with a Stats hook attached, the way
// iobfleetd runs every sweep. The delta vs Workers4 is the whole cost of
// live instrumentation — a few atomic adds per wearer — and the
// allocation-budget gate holds it to the same ceilings as the
// uninstrumented engine: instrumentation must not break the zero-alloc
// hot path.
func BenchmarkFleetInstrumented(b *testing.B) {
	f := testFleet(200, 4, 42)
	f.Span = 60 * units.Second
	f.Stats = &Stats{}
	b.ReportAllocs()
	var last Perf
	for i := 0; i < b.N; i++ {
		_, perf, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = perf
	}
	b.ReportMetric(last.RunsPerSec, "runs/s")
	b.ReportMetric(last.EventsPerSec, "events/s")
	b.ReportMetric(last.Phase1.Seconds()*1e3, "phase1-ms")
}

// TestFleetParallelSpeedup asserts the acceptance criterion on machines
// with enough cores: the NumCPU-worker sweep of 1,000 wearers runs >2×
// faster than the serial sweep. Below 4 cores there is nothing to
// measure, so the test skips.
func TestFleetParallelSpeedup(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 cores for a speedup claim, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test in -short mode")
	}
	mk := func(workers int) *Fleet {
		f := testFleet(1000, workers, 42)
		f.Span = 60 * units.Second
		return f
	}
	// Warm up once so first-touch allocation noise lands outside the
	// measured runs.
	if _, _, err := mk(1).Run(); err != nil {
		t.Fatal(err)
	}
	_, serial, err := mk(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	_, parallel, err := mk(runtime.NumCPU()).Run()
	if err != nil {
		t.Fatal(err)
	}
	speedup := serial.Elapsed.Seconds() / parallel.Elapsed.Seconds()
	t.Logf("serial %v, parallel %v on %d workers → %.2fx", serial.Elapsed, parallel.Elapsed, parallel.Workers, speedup)
	if speedup <= 2 {
		t.Errorf("speedup %.2fx on %d cores, want > 2x", speedup, runtime.NumCPU())
	}
}

// benchCoupledFleet mirrors benchFleet with the two-phase engine.
// cells ≫ wearers keeps every wearer effectively alone (zero foreign
// load), so the physics — and the per-wearer event count — match the
// uncoupled benchmark and the delta is pure engine overhead: phase 1
// plus coupling bookkeeping. The acceptance budget is ≤10% vs the
// uncoupled workers-matched baseline in BENCH_fleet.json. Phase 1 runs
// the Generator's load pass, matching how cmd/iobfleet wires a sweep.
func benchCoupledFleet(b *testing.B, workers, cells int, feedback bool) {
	b.Helper()
	f := testFleet(200, workers, 42)
	f.Loads = testGenerator().LoadScenario()
	f.Span = 60 * units.Second
	f.Coupling = &Coupling{Cells: cells, Feedback: feedback}
	b.ReportAllocs()
	var last Perf
	for i := 0; i < b.N; i++ {
		_, perf, err := f.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = perf
	}
	b.ReportMetric(last.RunsPerSec, "runs/s")
	b.ReportMetric(last.EventsPerSec, "events/s")
	b.ReportMetric(last.Phase1.Seconds()*1e3, "phase1-ms")
}

// BenchmarkFleetCoupledSparse is the engine-overhead benchmark (density
// ≈ 0: identical physics to BenchmarkFleetWorkers4, so the runs/s gap is
// the two-phase cost).
func BenchmarkFleetCoupledSparse(b *testing.B) { benchCoupledFleet(b, 4, 1<<20, false) }

// BenchmarkFleetCoupledDense is the physics-inclusive benchmark: ~12
// wearers per cell of contending BLE traffic, the shape of a real
// density sweep (collision retries add events, so runs/s is expected to
// move with the workload, not the engine).
func BenchmarkFleetCoupledDense(b *testing.B) { benchCoupledFleet(b, 4, 16, false) }

// BenchmarkFleetFeedbackSparse is the equilibrium-overhead benchmark:
// every wearer is alone in its cell, so every fixed point is trivial
// (zero rounds) and the physics match CoupledSparse exactly — the
// runs/s gap vs CoupledSparse is the cost of the feedback machinery
// itself (member gathering plus the solve walk). The acceptance budget
// is ≤10% over the two-phase baseline, matching PR 3's discipline.
func BenchmarkFleetFeedbackSparse(b *testing.B) { benchCoupledFleet(b, 4, 1<<20, true) }

// BenchmarkFleetFeedbackDense iterates real fixed points (~12 wearers
// per cell of contending BLE traffic). Like CoupledDense it moves with
// the workload — equilibrium collisions add retries and events — so
// phase1-ms, not runs/s, is the engine-cost signal.
func BenchmarkFleetFeedbackDense(b *testing.B) { benchCoupledFleet(b, 4, 16, true) }

// BenchmarkStreamDistAdd times one Add on a full 256-centroid histogram
// fed a continuous stream, so nearly every sample opens a centroid and
// forces a merge. The reference sub-benchmark runs refDist, the Add that
// rescanned every gap, on the same stream.
func BenchmarkStreamDistAdd(b *testing.B) {
	xs := make([]float64, 1<<16)
	state := uint64(5)
	for i := range xs {
		state = state*6364136223846793005 + 1442695040888963407
		xs[i] = float64(state>>11) / (1 << 53)
	}
	b.Run("cached", func(b *testing.B) { benchAdd(b, NewStreamDist(0).Add, xs) })
	b.Run("reference", func(b *testing.B) { benchAdd(b, (&refDist{maxBins: DefaultMaxBins}).Add, xs) })
}

func benchAdd(b *testing.B, add func(float64), xs []float64) {
	for _, x := range xs[:4096] { // fill past the budget
		add(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		add(xs[i&(len(xs)-1)])
	}
}
