package fleet

// Zero-allocation hot-path regression suite for the reusable-kernel
// engine: the per-wearer steady state must stay allocation-lean (the
// kernel itself allocation-free), recycled kernels must be
// physics-identical to fresh ones, and the Generator's phase-1 load
// pass must be draw-for-draw equivalent to full scenario generation.

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// TestFreshKernelsMatchesReuse pins that recycling kernels, RNGs and
// report buffers changed allocation lifetime only: the same sweep run as
// one-wearer fleets — each a new Fleet, so every wearer starts from
// fresh kernels, scratch and report buffers — and folded in wearer order
// into one aggregator must produce a byte-identical aggregate, including
// through the coupled two-phase path, whose interference stamping shares
// the worker scratch.
func TestFreshKernelsMatchesReuse(t *testing.T) {
	for name, coupled := range map[string]bool{"uncoupled": false, "coupled": true} {
		t.Run(name, func(t *testing.T) {
			mk := func() *Fleet {
				f := testFleet(120, 4, 13)
				if coupled {
					f.Coupling = &Coupling{Cells: 8}
				}
				return f
			}
			reuse, _, err := mk().Run()
			if err != nil {
				t.Fatal(err)
			}
			agg := NewStreamAggregator(mk().Span)
			for w := 0; w < 120; w++ {
				f := mk()
				f.Start, f.End = w, w+1
				if _, err := f.Stream(agg); err != nil {
					t.Fatal(err)
				}
			}
			jr, _ := json.Marshal(reuse)
			jf, _ := json.Marshal(agg.Report())
			if string(jr) != string(jf) {
				t.Fatalf("arena reuse diverged from fresh kernels:\n%s\n%s", jr, jf)
			}
		})
	}
}

// TestLoadScenarioMatchesScenario pins the Generator's two compiled
// forms to each other: for every wearer, the load pass must see the
// identical radiative node loads the full scenario would produce —
// across BLE mixes, node dropping and every spread knob — or the coupled
// engine's two phases would explore different populations.
func TestLoadScenarioMatchesScenario(t *testing.T) {
	gens := map[string]*Generator{
		"default": {Base: DefaultBase(), PERSpread: 0.5, BatterySpread: 0.3,
			HarvesterProb: 0.3, DropNodeProb: 0.25, BLEFraction: 0.25},
		"all-ble":    {Base: DefaultBase(), BLEFraction: 1},
		"no-perturb": {Base: DefaultBase()},
		"heavy-drop": {Base: DefaultBase(), DropNodeProb: 0.9, BLEFraction: 0.5, DrainBattery: true},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			scen := gen.Scenario()
			loads := gen.LoadScenario()
			for w := 0; w < 300; w++ {
				seed := int64(w * 7)
				cfg, err := scen(w, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				want := appendNodeLoads(nil, &cfg)
				got, err := loads(w, rand.New(rand.NewSource(seed)), nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("wearer %d: load pass found %d radiative nodes, scenario %d", w, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("wearer %d node %d: load pass %+v, scenario %+v", w, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCoupledLoadsFastPathFingerprint: wiring Fleet.Loads must not move
// a byte of the coupled (and feedback) aggregate — the fast path is an
// equivalent computation, not a different one.
func TestCoupledLoadsFastPathFingerprint(t *testing.T) {
	gen := &Generator{Base: DefaultBase(), PERSpread: 0.5, BatterySpread: 0.3,
		HarvesterProb: 0.3, DropNodeProb: 0.25, BLEFraction: 0.5}
	for name, feedback := range map[string]bool{"first-order": false, "feedback": true} {
		t.Run(name, func(t *testing.T) {
			mk := func(fast bool) *Fleet {
				f := &Fleet{
					Wearers: 90, Seed: 23, Scenario: gen.Scenario(),
					Span: 10 * units.Second, Workers: 4,
					Coupling: &Coupling{Cells: 6, Feedback: feedback},
				}
				if fast {
					f.Loads = gen.LoadScenario()
				}
				return f
			}
			slow, _, err := mk(false).Run()
			if err != nil {
				t.Fatal(err)
			}
			fast, _, err := mk(true).Run()
			if err != nil {
				t.Fatal(err)
			}
			js, _ := json.Marshal(slow)
			jf, _ := json.Marshal(fast)
			if string(js) != string(jf) {
				t.Fatalf("Loads fast path diverged from scenario-generating phase 1:\n%s\n%s", js, jf)
			}
		})
	}
}

// TestLoadScenarioInvalidGenerator: an invalid generator's load pass
// fails on first use, mirroring Scenario.
func TestLoadScenarioInvalidGenerator(t *testing.T) {
	bad := &Generator{} // no base nodes
	if _, err := bad.LoadScenario()(0, rand.New(rand.NewSource(1)), nil); err == nil {
		t.Fatal("invalid generator's load pass did not fail")
	}
}

// TestFleetSteadyStateAllocBudget pins the engine's marginal per-wearer
// allocation cost. The kernel path is allocation-free; what remains is
// scenario generation (the node slice and battery clones the Scenario
// API hands over by value) plus aggregation noise. The pre-arena engine
// spent ~2,000 allocations and ~145 KB per wearer; the budget here is
// two orders of magnitude below that, with slack so the test pins the
// architecture, not the runtime version.
func TestFleetSteadyStateAllocBudget(t *testing.T) {
	sweep := func(wearers int) func() {
		return func() {
			f := testFleet(wearers, 1, 42)
			f.Span = 2 * units.Second
			if _, _, err := f.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep(140)() // warm any lazy runtime state
	small := testing.AllocsPerRun(3, sweep(40))
	large := testing.AllocsPerRun(3, sweep(140))
	perWearer := (large - small) / 100
	t.Logf("marginal allocations per wearer: %.1f (40-wearer sweep %.0f, 140-wearer sweep %.0f)", perWearer, small, large)
	const budget = 10
	if perWearer > budget {
		t.Errorf("steady-state engine allocates %.1f times per wearer, budget %d — per-wearer churn crept back in", perWearer, budget)
	}
}

// TestCoupledPhase1AllocBudget pins phase 1's marginal cost with the
// load-pass fast path wired: the offered-load reduction must not
// regenerate per-wearer garbage (it was two allocations and ~5 KB of
// fresh RNG per wearer before the scratch existed).
func TestCoupledPhase1AllocBudget(t *testing.T) {
	gen := &Generator{Base: DefaultBase(), PERSpread: 0.5, BatterySpread: 0.3,
		HarvesterProb: 0.3, DropNodeProb: 0.25, BLEFraction: 0.5}
	phase1Only := func(wearers int) func() {
		return func() {
			f := &Fleet{
				Wearers: wearers, Seed: 5, Scenario: gen.Scenario(),
				Loads: gen.LoadScenario(), Span: units.Second, Workers: 1,
				Coupling: &Coupling{Cells: 16},
			}
			if err := f.Coupling.validate(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.offeredLoads(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	phase1Only(600)()
	small := testing.AllocsPerRun(5, phase1Only(100))
	large := testing.AllocsPerRun(5, phase1Only(600))
	perWearer := (large - small) / 500
	t.Logf("phase-1 marginal allocations per wearer: %.2f", perWearer)
	if perWearer > 1 {
		t.Errorf("phase 1 allocates %.2f times per wearer with the load fast path, want ≤ 1", perWearer)
	}
}

// TestRecordOfMatchesRecordInto pins the engine's buffer-reusing
// flattening to a one-shot one: the same report flattened into a fresh
// record and into a dirty reused buffer (stale nodes, stale spectrum
// placement) gives the same record — recordInto fully overwrites the
// buffer rather than merging into it.
func TestRecordOfMatchesRecordInto(t *testing.T) {
	cfg := DefaultBase()
	cfg.Seed = 9
	rep, err := bannet.Run(cfg, 5*units.Second)
	if err != nil {
		t.Fatal(err)
	}
	var want telemetry.Record
	recordInto(&want, 3, rep)
	dirty := telemetry.Record{
		Wearer: 99, Cell: 7, ForeignLoadPPM: 1, EqForeignLoadPPM: 2, FeedbackIters: 3,
		Nodes: make([]telemetry.NodeRecord, 8),
	}
	recordInto(&dirty, 3, rep)
	if len(dirty.Nodes) != len(want.Nodes) {
		t.Fatalf("recordInto kept %d nodes, want %d", len(dirty.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		if dirty.Nodes[i] != want.Nodes[i] {
			t.Fatalf("node %d diverged: %+v vs %+v", i, dirty.Nodes[i], want.Nodes[i])
		}
	}
	dirty.Nodes, want.Nodes = nil, nil
	if !reflect.DeepEqual(dirty, want) {
		t.Fatalf("recordInto left stale scalar fields: %+v vs %+v", dirty, want)
	}
}
