package fleet

// Determinism and parallelism-invariance suite. The contract under test:
// a fleet's aggregate report is a pure function of (population, fleet
// seed, scenario, span) — worker count, goroutine scheduling and rerun
// number must not move a single byte of it.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/units"
)

// Run streams the whole sweep into a StreamAggregator and returns its
// report: the in-package tests' shorthand for a sweep without a store
// (binaries run sweeps through sweep.Open and Run).
func (f *Fleet) Run() (*Report, Perf, error) {
	agg := NewStreamAggregator(f.Span)
	perf, err := f.Stream(agg)
	if err != nil {
		return nil, Perf{}, err
	}
	return agg.Report(), perf, nil
}

// testGenerator is the stock perturbed population the fleet tests and
// benchmarks sweep.
func testGenerator() *Generator {
	return &Generator{
		Base:          DefaultBase(),
		PERSpread:     0.5,
		BatterySpread: 0.3,
		HarvesterProb: 0.3,
		DropNodeProb:  0.25,
		BLEFraction:   0.25,
	}
}

// testFleet is a population sweep sized to finish in well under a second.
func testFleet(wearers, workers int, seed int64) *Fleet {
	return &Fleet{
		Wearers:  wearers,
		Seed:     seed,
		Scenario: testGenerator().Scenario(),
		Span:     30 * units.Second,
		Workers:  workers,
	}
}

// TestFleetDeterminism reruns the same fleet and demands byte-identical
// aggregate reports (not just equal fingerprints: the JSON itself).
func TestFleetDeterminism(t *testing.T) {
	a, _, err := testFleet(100, 4, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := testFleet(100, 4, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same fleet seed produced different aggregate reports:\n%s\n%s", ja, jb)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprints diverge on identical reports")
	}
}

// TestFleetParallelismInvariance is the acceptance criterion: 1,000
// wearers, workers=1 versus workers=NumCPU (and a fixed 8 for machines
// where NumCPU is 1), byte-identical aggregate output.
func TestFleetParallelismInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-wearer sweep in -short mode")
	}
	serial, _, err := testFleet(1000, 1, 42).Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(serial)
	for _, workers := range []int{8, runtime.NumCPU()} {
		par, perf, err := testFleet(1000, workers, 42).Run()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(par)
		if string(got) != string(want) {
			t.Fatalf("workers=%d diverged from workers=1 (%v)", workers, perf)
		}
	}
}

// TestFleetSeedSensitivity checks distinct fleet seeds actually explore
// distinct populations.
func TestFleetSeedSensitivity(t *testing.T) {
	a, _, err := testFleet(50, 4, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := testFleet(50, 4, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different fleet seeds produced identical populations")
	}
}

// TestFleetWorkerCountIrrelevantToError checks a failing wearer surfaces
// as the lowest failing index regardless of scheduling.
func TestFleetWorkerCountIrrelevantToError(t *testing.T) {
	scen := func(wearer int, rng *rand.Rand) (bannet.Config, error) {
		if wearer == 3 || wearer == 17 {
			return bannet.Config{}, fmt.Errorf("boom %d", wearer)
		}
		return DefaultBase(), nil
	}
	for _, workers := range []int{1, 8} {
		f := &Fleet{Wearers: 20, Seed: 1, Scenario: scen, Span: units.Second, Workers: workers}
		_, _, err := f.Run()
		if err == nil || !strings.Contains(err.Error(), "wearer 3") {
			t.Fatalf("workers=%d: error = %v, want failure at wearer 3", workers, err)
		}
	}
}

// TestFleetRejectsDegenerateInputs covers the engine's own validation.
func TestFleetRejectsDegenerateInputs(t *testing.T) {
	ok := func(wearer int, rng *rand.Rand) (bannet.Config, error) { return DefaultBase(), nil }
	for name, f := range map[string]*Fleet{
		"no wearers": {Wearers: 0, Scenario: ok, Span: units.Second},
		"nil scen":   {Wearers: 1, Scenario: nil, Span: units.Second},
		"no span":    {Wearers: 1, Scenario: ok, Span: 0},
	} {
		if _, _, err := f.Run(); err == nil {
			t.Errorf("%s: Run accepted a degenerate fleet", name)
		}
	}
}

// TestFleetOverriddenSeed checks the engine stamps each wearer's
// simulation seed: a scenario-set seed must not leak through, or two
// fleets with different fleet seeds would replay identical noise.
func TestFleetOverriddenSeed(t *testing.T) {
	scen := func(wearer int, rng *rand.Rand) (bannet.Config, error) {
		cfg := DefaultBase()
		cfg.Seed = 999 // engine must overwrite this
		for i := range cfg.Nodes {
			cfg.Nodes[i].PER = 0.3 // high PER so the RNG shows in retransmissions
		}
		return cfg, nil
	}
	run := func(seed int64) *Report {
		f := &Fleet{Wearers: 8, Seed: seed, Scenario: scen, Span: 30 * units.Second, Workers: 2}
		rep, _, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if run(5).Fingerprint() == run(6).Fingerprint() {
		t.Fatal("scenario-set Config.Seed leaked through; per-wearer derived seeds not applied")
	}
}
