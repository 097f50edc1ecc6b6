package fleet

import (
	"fmt"
	"math/rand"

	"wiban/internal/bannet"
	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/spectrum"
	"wiban/internal/units"
)

// Generator perturbs a base network configuration across a diverse wearer
// population: no two bodies have the same channel loss, battery wear,
// harvesting opportunity or device mix. All randomness comes from the
// per-wearer RNG the engine hands the scenario, so a population is a pure
// function of the fleet seed.
type Generator struct {
	// Base is the template network. Node slices are copied per wearer;
	// the shared pointers inside (sensors, policies, radios) are treated
	// as read-only.
	Base bannet.Config

	// PERSpread jitters each node's packet error rate by a uniform
	// multiplicative factor in [1-PERSpread, 1+PERSpread] (clamped to a
	// sane PER range). 0 disables; 0.5 models a 2x-ish body-channel
	// spread across postures and physiologies.
	PERSpread float64

	// BatterySpread scales each node's battery capacity by a uniform
	// factor in [1-BatterySpread, 1+BatterySpread], modeling cell aging
	// and size variants. 0 disables.
	BatterySpread float64

	// HarvesterProb is the probability that a node without a harvester
	// gains one (drawn uniformly from the energy harvester catalog).
	HarvesterProb float64

	// DropNodeProb thins the device mix: every node after the first is
	// independently absent with this probability (nobody wears every
	// device every day). The first node always remains so a wearer is
	// never empty.
	DropNodeProb float64

	// BLEFraction is the fraction of wearers using BLE 4.2 radios instead
	// of the base radios. Nodes whose stream exceeds the BLE goodput keep
	// their base radio (a camera cannot fall back to BLE).
	BLEFraction float64

	// DrainBattery switches every node to in-run battery accounting so
	// the fleet report's DiedFraction is meaningful.
	DrainBattery bool
}

// Validate rejects out-of-range spread parameters.
func (g *Generator) Validate() error {
	if len(g.Base.Nodes) == 0 {
		return fmt.Errorf("fleet: generator has no base nodes")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PERSpread", g.PERSpread},
		{"BatterySpread", g.BatterySpread},
		{"HarvesterProb", g.HarvesterProb},
		{"DropNodeProb", g.DropNodeProb},
		{"BLEFraction", g.BLEFraction},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fleet: generator %s %v outside [0,1]", p.name, p.v)
		}
	}
	if g.BatterySpread >= 1 {
		return fmt.Errorf("fleet: BatterySpread %v leaves no capacity at the low end", g.BatterySpread)
	}
	return nil
}

// Tag renders the generator's perturbation parameters as a stable string.
// It is stored in a telemetry store's metadata so a resumed sweep can
// refuse flags that describe a different population (the base config is
// assumed fixed per binary version).
func (g *Generator) Tag() string {
	return fmt.Sprintf("gen:per=%g,batt=%g,harv=%g,drop=%g,ble=%g,drain=%t",
		g.PERSpread, g.BatterySpread, g.HarvesterProb, g.DropNodeProb, g.BLEFraction, g.DrainBattery)
}

// spread returns a uniform multiplicative factor in [1-s, 1+s].
func spread(rng *rand.Rand, s float64) float64 {
	if s <= 0 {
		return 1
	}
	return 1 + s*(2*rng.Float64()-1)
}

// nodeDraw is the fixed per-node random draw block. Scenario and
// LoadScenario both consume it through drawNode, so the two paths drain
// the wearer's RNG stream identically by construction — the invariant
// that lets the coupled engine's phase 1 skip full config assembly. The
// block is drawn for every base node, dropped or not, so RNG consumption
// never depends on which nodes happen to remain.
type nodeDraw struct {
	drop        bool
	perScale    float64
	battScale   float64
	harvestRoll float64
	harvestPick int
}

// drawNode drains one node's draw block from the wearer RNG; harvestN is
// the harvester-catalog size.
func (g *Generator) drawNode(rng *rand.Rand, harvestN int) nodeDraw {
	var d nodeDraw
	d.drop = rng.Float64() < g.DropNodeProb
	d.perScale = spread(rng, g.PERSpread)
	d.battScale = spread(rng, g.BatterySpread)
	d.harvestRoll = rng.Float64()
	d.harvestPick = rng.Intn(harvestN)
	return d
}

// bleFor returns the BLE fallback radio if the node's stream fits it,
// else the node's base radio — the effective-radio rule both the full
// scenario and the load pass apply.
func bleFor(base *bannet.NodeConfig, ble *radio.Transceiver) *radio.Transceiver {
	if base.Policy.OutputRate(base.Sensor.DataRate()) <= ble.Goodput {
		return ble
	}
	return base.Radio
}

// Scenario compiles the generator into the engine's scenario function.
// Validation happens once here, not per wearer; an invalid generator
// yields a scenario that fails on first use.
func (g *Generator) Scenario() Scenario {
	if err := g.Validate(); err != nil {
		return func(int, *rand.Rand) (bannet.Config, error) { return bannet.Config{}, err }
	}
	harvesters := energy.Harvesters()
	ble := radio.BLE42() // one shared read-only transceiver, not one per node visit
	return func(wearer int, rng *rand.Rand) (bannet.Config, error) {
		cfg := g.Base // shallow copy; Nodes rebuilt below
		cfg.Nodes = make([]bannet.NodeConfig, 0, len(g.Base.Nodes))
		useBLE := rng.Float64() < g.BLEFraction
		for i := range g.Base.Nodes {
			base := &g.Base.Nodes[i]
			// Device mix: keep the first node, drop later ones at random.
			d := g.drawNode(rng, len(harvesters))
			if i > 0 && d.drop {
				continue
			}

			nc := *base // copy; the shared Sensor/Policy pointers stay read-only
			nc.PER = units.Clamp(base.PER*d.perScale, 0, 0.5)
			if useBLE {
				nc.Radio = bleFor(base, ble)
			}
			if g.BatterySpread > 0 && nc.Battery != nil {
				batt := *nc.Battery // clone before scaling a shared cell
				batt.CapacityMAh *= d.battScale
				nc.Battery = &batt
			}
			if nc.Harvester == nil && d.harvestRoll < g.HarvesterProb {
				nc.Harvester = harvesters[d.harvestPick]
			}
			if g.DrainBattery {
				nc.DrainBattery = true
			}
			cfg.Nodes = append(cfg.Nodes, nc)
		}
		return cfg, nil
	}
}

// LoadScenario compiles the generator into the coupled engine's phase-1
// fast path: the same RNG draws and node-survival decisions as Scenario,
// but only the radiative offered loads come out — no node structs, no
// battery clones, no allocation at all. Wire it to Fleet.Loads next to
// Scenario; TestLoadScenarioMatchesScenario pins the equivalence.
func (g *Generator) LoadScenario() LoadScenario {
	if err := g.Validate(); err != nil {
		return func(_ int, _ *rand.Rand, dst []spectrum.NodeLoad) ([]spectrum.NodeLoad, error) {
			return dst, err
		}
	}
	harvestN := len(energy.Harvesters())
	ble := radio.BLE42()
	return func(wearer int, rng *rand.Rand, dst []spectrum.NodeLoad) ([]spectrum.NodeLoad, error) {
		useBLE := rng.Float64() < g.BLEFraction
		for i := range g.Base.Nodes {
			base := &g.Base.Nodes[i]
			d := g.drawNode(rng, harvestN)
			if i > 0 && d.drop {
				continue
			}
			r := base.Radio
			if useBLE {
				r = bleFor(base, ble)
			}
			// PER, battery and harvester perturbations never move a
			// node's offered airtime, so the draws above are consumed
			// and discarded.
			if ppm, ok := offeredPPMWith(base, r); ok {
				dst = append(dst, spectrum.NodeLoad{BasePPM: ppm, Retries: base.MaxRetries})
			}
		}
		return dst, nil
	}
}

// DefaultBase returns the stock heterogeneous BAN used by cmd/iobfleet,
// cmd/iobsim and the fleet benchmarks: an ECG patch, an IMU band with
// indoor-PV harvesting, and an ADPCM voice mic, all on Wi-R. It has no
// camera, whose 1.15 Mbps stream would bar the BLE arm of a population
// sweep.
func DefaultBase() bannet.Config {
	return bannet.Config{Nodes: []bannet.NodeConfig{
		{
			ID: 1, Name: "ecg-patch", Sensor: sensors.ECGPatch(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.Fig3Battery(),
			PacketBits: 1024, PER: 0.01, MaxRetries: 5,
		},
		{
			ID: 2, Name: "imu-band", Sensor: sensors.IMU6Axis(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.CR2032(), Harvester: energy.IndoorPV(),
			PacketBits: 1024, PER: 0.02, MaxRetries: 5,
		},
		{
			ID: 3, Name: "voice-mic", Sensor: sensors.MicMono(),
			Policy: isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
			Radio:  radio.WiR(), Battery: energy.Fig3Battery(),
			PacketBits: 4096, PER: 0.02, MaxRetries: 4,
		},
	}}
}
