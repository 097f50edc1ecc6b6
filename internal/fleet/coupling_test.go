package fleet

// Tests for the two-phase spectrum-coupled engine: the determinism and
// resume contracts must survive the coupling, and the physics must show
// the paper's density story — RF links degrade with wearers-per-cell
// while body-channel (EQS) links do not.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/spectrum"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// coupledBase is a two-node wearer built for clean interference
// attribution: node 0 streams an IMU over a BLE radio (RF — exposed to
// cell contention), node 1 streams ECG over Wi-R (EQS — immune). Both
// links are error-free in isolation (PER 0), so any delivery loss on
// node 0 is collision loss and node 1's delivery is density-invariant by
// construction.
func coupledBase() bannet.Config {
	return bannet.Config{Nodes: []bannet.NodeConfig{
		{
			ID: 1, Name: "ble-imu", Sensor: sensors.IMU6Axis(), Policy: isa.StreamAll{},
			Radio: radio.BLE42(), Battery: energy.CR2032(),
			PacketBits: 1024, PER: 0, MaxRetries: 1,
		},
		{
			ID: 2, Name: "wir-ecg", Sensor: sensors.ECGPatch(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.Fig3Battery(),
			PacketBits: 1024, PER: 0, MaxRetries: 1,
		},
	}}
}

// coupledFleet is a spectrum-coupled sweep over identical wearers.
func coupledFleet(wearers, workers int, seed int64, cells int) *Fleet {
	return &Fleet{
		Wearers: wearers,
		Seed:    seed,
		Scenario: func(int, *rand.Rand) (bannet.Config, error) {
			return coupledBase(), nil
		},
		Span:     30 * units.Second,
		Workers:  workers,
		Coupling: &Coupling{Cells: cells},
	}
}

// TestCoupledParallelismInvariance is the two-phase determinism
// criterion: the coupled sweep's aggregate report — including the
// per-cell stats — is byte-identical across worker counts.
func TestCoupledParallelismInvariance(t *testing.T) {
	serial, _, err := coupledFleet(120, 1, 99, 8).Run()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(serial)
	if len(serial.Cells) == 0 {
		t.Fatal("coupled sweep produced no cell stats")
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		par, perf, err := coupledFleet(120, workers, 99, 8).Run()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(par)
		if string(got) != string(want) {
			t.Fatalf("workers=%d diverged from workers=1 (%v)", workers, perf)
		}
	}
	// A perturbation check: the coupling must actually be part of the
	// fingerprint, not ignored.
	dense, _, err := coupledFleet(120, 4, 99, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if dense.Fingerprint() == serial.Fingerprint() {
		t.Fatal("cell count does not affect the coupled fingerprint")
	}
}

// TestCoupledResumeGolden extends the resume acceptance scenario to the
// two-phase engine: kill a coupled sweep at and inside a block boundary,
// resume from the checkpoint, and demand the exact uninterrupted
// fingerprint — then re-derive it from the store alone (which requires
// the v1 cell columns to replay).
func TestCoupledResumeGolden(t *testing.T) {
	const wearers, cells, blockSize = 90, 6, 16
	mk := func() *Fleet { return coupledFleet(wearers, 4, 77, cells) }

	want, _, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	meta := telemetry.Meta{
		FleetSeed:   77,
		Wearers:     wearers,
		SpanSeconds: float64(30 * units.Second),
		Scenario:    "coupledTestFleet;" + mk().Coupling.Tag(),
		BlockSize:   blockSize,
		Version:     telemetry.CurrentFormat,
		Cells:       cells,
	}

	for _, kill := range []struct {
		name  string
		after int
	}{
		{"at block boundary", 32},
		{"mid-block", 41},
	} {
		t.Run(kill.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "coupled.wtl")
			store, err := telemetry.Create(path, meta)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			killer := SinkFunc(func(rec telemetry.Record) error {
				if seen == kill.after {
					return errKilled
				}
				seen++
				return store.Consume(rec)
			})
			if _, err := mk().Stream(killer); err == nil {
				t.Fatal("kill-sink did not abort the sweep")
			}
			if err := store.Abort(); err != nil {
				t.Fatal(err)
			}

			resumed := resumeStore(t, path, meta)
			if wantNext := (kill.after / blockSize) * blockSize; resumed.NextWearer() != wantNext {
				t.Fatalf("resume at wearer %d, want %d", resumed.NextWearer(), wantNext)
			}
			agg := NewStreamAggregator(30 * units.Second)
			reader, err := telemetry.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := Replay(reader, agg)
			reader.Close()
			if err != nil {
				t.Fatal(err)
			}
			if replayed != resumed.NextWearer() {
				t.Fatalf("replayed %d records, checkpoint says %d", replayed, resumed.NextWearer())
			}
			f2 := mk()
			f2.Start = resumed.NextWearer()
			if _, err := f2.Stream(Tee(resumed, agg)); err != nil {
				t.Fatal(err)
			}
			if err := resumed.Close(); err != nil {
				t.Fatal(err)
			}
			if got := agg.Report(); got.Fingerprint() != want.Fingerprint() {
				t.Fatal("resumed coupled sweep diverged from uninterrupted run")
			}
			if got := reaggregate(t, path, 30*units.Second); got.Fingerprint() != want.Fingerprint() {
				t.Fatal("re-aggregation from the coupled store diverged")
			}
		})
	}
}

// nodeTotals sums per-node-index delivery and transmission counters
// across a sweep via a sink (node order is fixed by coupledBase).
type nodeTotals struct {
	gen, del, tx [2]int64
	life         [2]float64
}

func runDensity(t *testing.T, cells int) (*Report, nodeTotals) {
	t.Helper()
	var tot nodeTotals
	f := coupledFleet(96, 4, 7, cells)
	agg := NewStreamAggregator(f.Span)
	sink := Tee(agg, SinkFunc(func(rec telemetry.Record) error {
		if len(rec.Nodes) != 2 {
			return fmt.Errorf("wearer %d has %d nodes", rec.Wearer, len(rec.Nodes))
		}
		for i := range rec.Nodes {
			tot.gen[i] += rec.Nodes[i].PacketsGenerated
			tot.del[i] += rec.Nodes[i].PacketsDelivered
			tot.tx[i] += rec.Nodes[i].Transmissions
			tot.life[i] += rec.Nodes[i].ProjectedLife
		}
		return nil
	}))
	if _, err := f.Stream(sink); err != nil {
		t.Fatal(err)
	}
	return agg.Report(), tot
}

// TestDensitySweepDegradesRFOnly is the tentpole acceptance criterion:
// as wearers-per-cell rises (cells shrink over a fixed population), the
// RF node's delivery rate degrades monotonically and its radio works
// harder, while the EQS node's delivery is bit-identical at every
// density — the paper's shared-spectrum collapse, reproduced at fleet
// scale.
func TestDensitySweepDegradesRFOnly(t *testing.T) {
	densities := []int{96, 12, 3, 1} // cells: mean density 1 → 96 wearers/cell
	var (
		rfRate  []float64
		rfTx    []int64
		rfLife  []float64
		eqsDel  []int64
		reports []*Report
	)
	for _, cells := range densities {
		rep, tot := runDensity(t, cells)
		reports = append(reports, rep)
		rfRate = append(rfRate, float64(tot.del[0])/float64(tot.gen[0]))
		rfTx = append(rfTx, tot.tx[0])
		rfLife = append(rfLife, tot.life[0])
		eqsDel = append(eqsDel, tot.del[1])
	}
	for i := 1; i < len(densities); i++ {
		if rfRate[i] > rfRate[i-1] {
			t.Errorf("RF delivery rose with density: %.4f at %d cells vs %.4f at %d cells",
				rfRate[i], densities[i], rfRate[i-1], densities[i-1])
		}
		if rfTx[i] < rfTx[i-1] {
			t.Errorf("RF transmissions fell with density: %d at %d cells vs %d at %d cells",
				rfTx[i], densities[i], rfTx[i-1], densities[i-1])
		}
		if rfLife[i] > rfLife[i-1]+1e-6 {
			t.Errorf("RF battery life rose with density: %.1f at %d cells vs %.1f at %d cells",
				rfLife[i], densities[i], rfLife[i-1], densities[i-1])
		}
		if eqsDel[i] != eqsDel[0] {
			t.Errorf("EQS delivery moved with density: %d at %d cells vs %d at %d cells",
				eqsDel[i], densities[i], eqsDel[0], densities[0])
		}
	}
	if rfRate[len(rfRate)-1] > 0.5*rfRate[0] {
		t.Errorf("single-cell sweep barely degraded RF delivery: %.4f vs %.4f sparse",
			rfRate[len(rfRate)-1], rfRate[0])
	}

	// Per-cell stats: every wearer lands in exactly one cell, and the
	// congestion level rises as cells shrink.
	var prevLoad float64
	for i, rep := range reports {
		wearers := 0
		var load float64
		for _, c := range rep.Cells {
			wearers += c.Wearers
			load += c.MeanForeignLoad * float64(c.Wearers)
		}
		if wearers != 96 {
			t.Errorf("%d cells: cell stats cover %d wearers, want 96", densities[i], wearers)
		}
		if i > 0 && load <= prevLoad {
			t.Errorf("%d cells: mean foreign load %.4f did not rise above %.4f",
				densities[i], load/96, prevLoad/96)
		}
		prevLoad = load
	}
}

// TestCoupledPhase1ErrorIsLowestIndex: a failing scenario surfaces as
// the lowest failing wearer in phase 1, independent of worker count.
func TestCoupledPhase1ErrorIsLowestIndex(t *testing.T) {
	scen := func(wearer int, rng *rand.Rand) (bannet.Config, error) {
		if wearer == 5 || wearer == 60 {
			return bannet.Config{}, fmt.Errorf("boom %d", wearer)
		}
		return coupledBase(), nil
	}
	for _, workers := range []int{1, 8} {
		f := &Fleet{Wearers: 80, Seed: 1, Scenario: scen, Span: units.Second,
			Workers: workers, Coupling: &Coupling{Cells: 4}}
		_, _, err := f.Run()
		if err == nil || !strings.Contains(err.Error(), "wearer 5") {
			t.Fatalf("workers=%d: error = %v, want phase-1 failure at wearer 5", workers, err)
		}
	}
}

// TestCouplingValidation covers degenerate coupling parameters.
func TestCouplingValidation(t *testing.T) {
	f := coupledFleet(10, 2, 1, 0)
	if _, _, err := f.Run(); err == nil {
		t.Error("zero cells accepted")
	}
	f = coupledFleet(10, 2, 1, 4)
	f.Coupling.Model = &spectrum.Model{Beta: -1, MaxCollision: 0.9}
	if _, _, err := f.Run(); err == nil {
		t.Error("invalid collision model accepted")
	}
}

// TestCoupledIsolatedMatchesUncoupledPhysics: with every wearer alone in
// its cell there is no foreign load, so the coupled engine must
// reproduce the uncoupled sweep's physics exactly — the coupling is pure
// interference, not a perturbation of the population.
func TestCoupledIsolatedMatchesUncoupledPhysics(t *testing.T) {
	const wearers = 24
	f := coupledFleet(wearers, 4, 3, 1<<20)
	// Guard the premise: the hash must have scattered all wearers into
	// distinct cells for this seed.
	seen := map[int]bool{}
	for w := 0; w < wearers; w++ {
		c := f.cellOf(w)
		if seen[c] {
			t.Fatalf("wearers collide in cell %d; pick another seed for this test", c)
		}
		seen[c] = true
	}
	coupled, _, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	un := coupledFleet(wearers, 4, 3, 1)
	un.Coupling = nil
	uncoupled, _, err := un.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The coupled report additionally carries cell stats, so compare the
	// physics fields, not the whole fingerprint.
	if coupled.PacketsDelivered != uncoupled.PacketsDelivered ||
		coupled.PacketsDropped != uncoupled.PacketsDropped ||
		coupled.Events != uncoupled.Events ||
		coupled.DeliveryRate != uncoupled.DeliveryRate ||
		coupled.BatteryLifeHours != uncoupled.BatteryLifeHours {
		t.Fatalf("isolated coupled sweep diverged from uncoupled physics:\n%+v\n%+v", coupled, uncoupled)
	}
	for _, c := range coupled.Cells {
		if c.MeanForeignLoad != 0 {
			t.Fatalf("isolated wearer saw foreign load %g", c.MeanForeignLoad)
		}
	}
}
