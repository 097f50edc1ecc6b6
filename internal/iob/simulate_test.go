package iob

import (
	"fmt"
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/phy"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// The simulation bridge lowers a composed Network into the discrete-event
// simulator, deriving each node's packet error rate from the physical
// link budget, so these tests can hold the closed-form power breakdown to
// a simulated run. No binary lowers a Network this way.

// SimOptions tunes the lowering.
type SimOptions struct {
	// Seed drives the simulation randomness.
	Seed int64
	// BodyPath is the assumed node-to-hub body path for the link budget
	// (1.5 m default).
	BodyPath units.Distance
	// PacketBits is the framing quantum (8192 default).
	PacketBits int
	// MaxRetries bounds ARQ (5 default).
	MaxRetries int
	// Battery powers every node (the Fig. 3 cell by default).
	Battery *energy.Battery
	// DrainBattery enables in-run battery accounting and node death.
	DrainBattery bool
}

// fill applies defaults.
func (o *SimOptions) fill() {
	if o.BodyPath <= 0 {
		o.BodyPath = 1.5 * units.Meter
	}
	if o.PacketBits <= 0 {
		o.PacketBits = 8192
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 5
	}
	if o.Battery == nil {
		o.Battery = energy.Fig3Battery()
	}
}

// linkPER derives the packet error rate for a node's radio over the body
// path from the PHY link budget.
func linkPER(tr *radio.Transceiver, bodyPath units.Distance, packetBits int) (float64, error) {
	var link *phy.Link
	switch tr.Tech {
	case radio.TechEQS:
		link = phy.WiRLink(bodyPath)
	case radio.TechRF:
		link = phy.BLELink(bodyPath)
	case radio.TechMQS:
		link = phy.MQSLink(bodyPath)
	default:
		return 0, fmt.Errorf("iob: no channel model for %v", tr.Tech)
	}
	per := link.PER(packetBits)
	if per >= 1 {
		return 0, fmt.Errorf("iob: %s link does not close over %v", tr.Name, bodyPath)
	}
	return per, nil
}

// ToSimConfig lowers the network to a bannet configuration.
func (n *Network) ToSimConfig(opts SimOptions) (bannet.Config, error) {
	opts.fill()
	cfg := bannet.Config{Seed: opts.Seed}
	if n.Hub.Compute != nil {
		cfg.HubCompute = n.Hub.Compute
	}
	for i, d := range n.Nodes {
		if d.Sensor == nil || d.Policy == nil || d.Radio == nil {
			return bannet.Config{}, fmt.Errorf("iob: node %q incompletely specified", d.Name)
		}
		per, err := linkPER(d.Radio, opts.BodyPath, opts.PacketBits)
		if err != nil {
			return bannet.Config{}, err
		}
		nc := bannet.NodeConfig{
			ID: i + 1, Name: d.Name,
			Sensor: d.Sensor, Policy: d.Policy, Radio: d.Radio,
			Battery:    opts.Battery,
			PacketBits: opts.PacketBits, PER: per, MaxRetries: opts.MaxRetries,
			DrainBattery: opts.DrainBattery,
		}
		// Offloaded workloads become hub inference specs.
		if d.Workload != nil && d.Arch == HumanInspired {
			nc.Inference = &bannet.InferenceSpec{
				Name:      d.Workload.Model.Name,
				MACs:      d.Workload.Model.TotalMACs(),
				InputBits: d.Workload.Model.InElems() * 8,
			}
		}
		cfg.Nodes = append(cfg.Nodes, nc)
	}
	return cfg, nil
}

// Simulate lowers the network and runs it for the given span.
func (n *Network) Simulate(opts SimOptions, span units.Duration) (*bannet.Report, error) {
	cfg, err := n.ToSimConfig(opts)
	if err != nil {
		return nil, err
	}
	return bannet.Run(cfg, span)
}

func demoNetwork(t *testing.T) *Network {
	t.Helper()
	kws, err := nn.KWSNet()
	if err != nil {
		t.Fatal(err)
	}
	return &Network{
		Name: "sim bridge BAN",
		Hub:  DefaultHub(),
		Nodes: []*NodeDesign{
			HumanInspiredNode("ecg", sensors.ECGPatch(), nil, nil),
			HumanInspiredNode("mic", sensors.MicMono(),
				isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
				&Workload{Model: kws, PerSecond: 2}),
		},
	}
}

func TestNetworkSimulateEndToEnd(t *testing.T) {
	net := demoNetwork(t)
	rep, err := net.Simulate(SimOptions{Seed: 3}, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("nodes in report: %d", len(rep.Nodes))
	}
	ecg := rep.NodeByName("ecg")
	mic := rep.NodeByName("mic")
	if ecg.DeliveryRate() < 0.99 || mic.DeliveryRate() < 0.99 {
		t.Error("physical-PER links should deliver ≈ 100% with ARQ")
	}
	if !ecg.Perpetual {
		t.Errorf("ECG node should be perpetual (life %v)", ecg.ProjectedLife)
	}
	// The mic's workload became a hub inference stream.
	if mic.Inferences == 0 {
		t.Error("offloaded workload produced no inferences")
	}
	if rep.HubComputeEnergy <= 0 {
		t.Error("hub compute energy missing")
	}
}

func TestToSimConfigDerivesPER(t *testing.T) {
	net := demoNetwork(t)
	cfg, err := net.ToSimConfig(SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, nc := range cfg.Nodes {
		if nc.PER <= 0 || nc.PER >= 0.05 {
			t.Errorf("%s: derived PER %g outside the plausible (0, 0.05) window", nc.Name, nc.PER)
		}
	}
	// A longer body path worsens PER monotonically.
	far, err := net.ToSimConfig(SimOptions{BodyPath: 2 * units.Meter})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Nodes {
		if far.Nodes[i].PER < cfg.Nodes[i].PER {
			t.Errorf("%s: PER improved with distance", cfg.Nodes[i].Name)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	bad := &Network{Name: "bad", Nodes: []*NodeDesign{{Name: "x"}}}
	if _, err := bad.ToSimConfig(SimOptions{}); err == nil {
		t.Error("incomplete node should fail lowering")
	}
}

func TestSimulateAgreesWithBreakdown(t *testing.T) {
	// The simulator's measured average power must agree with the analytic
	// breakdown within 3× (the sim resolves framing overheads and beacon
	// costs the closed form folds into its wake-rate estimate).
	net := demoNetwork(t)
	rep, err := net.Simulate(SimOptions{Seed: 5}, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range net.Nodes {
		b, err := d.AverageBreakdown()
		if err != nil {
			t.Fatal(err)
		}
		sim := rep.NodeByName(d.Name)
		ratio := float64(sim.AvgPower) / float64(b.Total())
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: sim %v vs analytic %v (ratio %.2f)", d.Name, sim.AvgPower, b.Total(), ratio)
		}
	}
}
