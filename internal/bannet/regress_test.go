package bannet

// Regression and reuse tests for the Sim refactor: pinned event/traffic
// counts guard replayability (a change to event ordering or RNG
// consumption shows up here before it silently shifts every figure), and
// the reuse tests guard that a recycled Sim behaves exactly like a fresh
// one.

import (
	"reflect"
	"testing"

	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// regressConfig is the fixed scenario the pinned values below replay.
func regressConfig() Config {
	return Config{Seed: 42, Nodes: []NodeConfig{
		{ID: 1, Name: "ecg", Sensor: sensors.ECGPatch(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.Fig3Battery(),
			PacketBits: 1024, PER: 0.05, MaxRetries: 5},
		{ID: 2, Name: "imu", Sensor: sensors.IMU6Axis(), Policy: isa.StreamAll{},
			Radio: radio.BLE42(), Battery: energy.CR2032(),
			PacketBits: 1024, PER: 0.1, MaxRetries: 3},
	}}
}

// TestRunPinnedRegression pins exact counters for a fixed seed. These
// values are part of the determinism contract: if this test fails, the
// change altered event ordering or RNG consumption and breaks replay of
// every recorded fleet fingerprint — that needs to be deliberate, not
// incidental.
func TestRunPinnedRegression(t *testing.T) {
	rep, err := Run(regressConfig(), units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 80295 {
		t.Errorf("Events = %d, want 80295", rep.Events)
	}
	wantBits := map[string]int64{"ecg": 10799104, "imu": 34555904}
	wantTx := map[string]int64{"ecg": 11152, "imu": 37503}
	for _, n := range rep.Nodes {
		if n.BitsDelivered != wantBits[n.Name] {
			t.Errorf("%s BitsDelivered = %d, want %d", n.Name, n.BitsDelivered, wantBits[n.Name])
		}
		if n.Transmissions != wantTx[n.Name] {
			t.Errorf("%s Transmissions = %d, want %d", n.Name, n.Transmissions, wantTx[n.Name])
		}
	}
}

// TestSimReuse runs one Sim three times and demands byte-identical
// reports: reset must clear every piece of carried state (queues, stats,
// latency buffers, hub server, batteries).
func TestSimReuse(t *testing.T) {
	sim, err := NewSim(regressConfig())
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.Run(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := sim.Run(units.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("rerun %d diverged from first run", i+2)
		}
	}
}

// TestSimReuseMatchesFreshRun checks the reusable path against the
// one-shot wrapper, including with battery drain enabled (battState must
// be refilled between runs).
func TestSimReuseMatchesFreshRun(t *testing.T) {
	cfg := regressConfig()
	for i := range cfg.Nodes {
		cfg.Nodes[i].DrainBattery = true
	}
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(30 * units.Minute); err != nil { // dirty the state
		t.Fatal(err)
	}
	reused, err := sim.Run(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(cfg, units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// The wrapper builds its own schedule; compare everything else.
	reused.Schedule, fresh.Schedule = nil, nil
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("reused Sim diverged from fresh Run:\nfresh  %+v\nreused %+v", fresh, reused)
	}
}

// TestSimSetSeed verifies seeds actually steer the replayed randomness:
// rebinding the same scenario under another seed changes the run, and
// rebinding it under the original seed restores it exactly.
func TestSimSetSeed(t *testing.T) {
	cfg := regressConfig()
	sim, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Run(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	seed := cfg.Seed
	cfg.Seed = seed + 1
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes[1].Transmissions == b.Nodes[1].Transmissions {
		t.Errorf("seed change did not perturb retransmissions (%d)", a.Nodes[1].Transmissions)
	}
	cfg.Seed = seed
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	c, err := sim.Run(units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("restoring the seed did not restore the run")
	}
}

// TestPacketQueue exercises the ring buffer through growth and
// wraparound, where the head is mid-buffer when a grow copies it out.
func TestPacketQueue(t *testing.T) {
	var q packetQueue
	seq := 0
	popped := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.push(packet{retries: seq})
			seq++
		}
		for i := 0; i < 5; i++ {
			if got := q.pop().retries; got != popped {
				t.Fatalf("pop = %d, want %d", got, popped)
			}
			popped++
		}
	}
	if q.len() != seq-popped {
		t.Fatalf("len = %d, want %d", q.len(), seq-popped)
	}
	for q.len() > 0 {
		if got := q.pop().retries; got != popped {
			t.Fatalf("drain pop = %d, want %d", got, popped)
		}
		popped++
	}
	if popped != seq {
		t.Fatalf("popped %d of %d pushed", popped, seq)
	}
	q.reset()
	if q.len() != 0 {
		t.Fatal("reset left elements")
	}
}

// TestSimArenaSteadyStateZeroAlloc pins the zero-allocation kernel
// contract: once a Sim's arena has warmed to a configuration family's
// high-water shape, a Reset–RunInto cycle — the fleet engine's per-wearer
// hot path — performs no heap allocation. A regression here means some
// per-wearer churn crept back into the kernel (packet rings, node states,
// schedule, report buffers) and the fleet throughput numbers in
// BENCH_fleet.json no longer hold.
func TestSimArenaSteadyStateZeroAlloc(t *testing.T) {
	big := regressConfig()
	small := regressConfig()
	small.Nodes = small.Nodes[:1]
	sim, err := NewSim(big)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	seed := int64(0)
	cycle := func() {
		// Alternate shapes so the arena's resize path is exercised, and
		// vary the seed the way the fleet engine does.
		cfg := big
		if seed%2 == 0 {
			cfg = small
		}
		cfg.Seed = seed
		seed++
		if err := sim.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunInto(10*units.Second, &rep); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the arena: packet rings and latency buffers grow to their
	// steady-state capacity within a few runs.
	for i := 0; i < 4; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("steady-state Reset+RunInto allocates %.1f times per cycle, want 0", avg)
	}
}
