// Package iob is the core library of this repository: the paper's
// "Human-Inspired Distributed Wearable AI" architecture as a composable
// API.
//
// It models IoB leaf nodes under the two competing architectures —
// the conventional node (sensor + local CPU + radiative radio) and the
// human-inspired node (sensor + optional in-sensor analytics + Wi-R, with
// heavy compute centralized on the on-body hub) — and provides the
// quantitative projections the paper's figures are built from: per-
// component power breakdowns (Fig. 1), battery-life-versus-data-rate
// projection with a perpetual region (Fig. 3), and whole-network
// composition checked against the shared medium's TDMA capacity.
package iob

import (
	"fmt"
	"strings"

	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/mac"
	"wiban/internal/nn"
	"wiban/internal/partition"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// Architecture selects between the paper's two node organizations.
type Architecture int

// Node architectures (Fig. 1 left vs right).
const (
	// Conventional is today's IoB node: every node carries a CPU and a
	// radiative radio.
	Conventional Architecture = iota
	// HumanInspired is the paper's proposal: leaf nodes are sensors (plus
	// optional ISA) wired to the hub brain over the EQS artificial
	// nervous system.
	HumanInspired
)

// String names the architecture.
func (a Architecture) String() string {
	switch a {
	case Conventional:
		return "conventional"
	case HumanInspired:
		return "human-inspired"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Workload is an AI task associated with a node's stream.
type Workload struct {
	// Model is the network to run per inference.
	Model *nn.Sequential
	// PerSecond is the inference rate.
	PerSecond float64
}

// NodeDesign is a leaf-node composition.
type NodeDesign struct {
	Name string
	Arch Architecture
	// Sensor is the node's front-end.
	Sensor *sensors.Sensor
	// Policy reduces the stream before the link.
	Policy isa.Policy
	// Radio is the node's transceiver.
	Radio *radio.Transceiver
	// Compute is the node's local compute platform (the CPU of a
	// conventional node, or the ISA accelerator); nil for a pure sensor.
	Compute *partition.Platform
	// Workload, if non-nil, is the AI task. A Conventional node runs it
	// on Compute; a HumanInspired node offloads it to the hub.
	Workload *Workload
	// SyncWakesPerSecond is the radio's synchronization wake rate
	// (beacons or connection events); defaults to 10/s.
	SyncWakesPerSecond float64
}

// PowerBreakdown is the Fig. 1 quantity: per-component node power.
type PowerBreakdown struct {
	Sense   units.Power
	Compute units.Power
	Comm    units.Power
}

// Total sums the components.
func (b PowerBreakdown) Total() units.Power { return b.Sense + b.Compute + b.Comm }

// LinkRate returns the node's average transmitted rate.
func (d *NodeDesign) LinkRate() units.DataRate {
	return d.Policy.OutputRate(d.Sensor.DataRate())
}

// wakes returns the sync wake rate with its default.
func (d *NodeDesign) wakes() float64 {
	if d.SyncWakesPerSecond > 0 {
		return d.SyncWakesPerSecond
	}
	return 10
}

// AverageBreakdown returns the long-run average per-component power.
func (d *NodeDesign) AverageBreakdown() (PowerBreakdown, error) {
	if d.Sensor == nil || d.Policy == nil || d.Radio == nil {
		return PowerBreakdown{}, fmt.Errorf("iob: node %q incompletely specified", d.Name)
	}
	var b PowerBreakdown
	b.Sense = d.Sensor.AFEPower

	b.Compute = d.Policy.ComputePower()
	if d.Workload != nil && d.Arch == Conventional {
		if d.Compute == nil {
			return PowerBreakdown{}, fmt.Errorf("iob: conventional node %q has a workload but no compute", d.Name)
		}
		perInf := units.Energy(float64(d.Compute.EnergyPerMAC) * float64(d.Workload.Model.TotalMACs()))
		b.Compute += units.Power(float64(perInf)*d.Workload.PerSecond) + d.Compute.IdlePower
	}

	comm, err := d.Radio.AveragePower(d.LinkRate(), d.wakes())
	if err != nil {
		return PowerBreakdown{}, fmt.Errorf("iob: node %q: %w", d.Name, err)
	}
	b.Comm = comm
	return b, nil
}

// ActiveBreakdown returns the component powers while each block is running
// flat out — the classes annotated on Fig. 1 (sensors ~100s µW, CPU ~mW,
// radio ~10s mW for conventional; 10–50 µW / ~100 µW / ~100 µW for
// human-inspired).
func (d *NodeDesign) ActiveBreakdown() PowerBreakdown {
	var b PowerBreakdown
	if d.Sensor != nil {
		b.Sense = d.Sensor.AFEPower
	}
	if d.Compute != nil {
		b.Compute = units.Power(float64(d.Compute.EnergyPerMAC)*d.Compute.MACRate) + d.Compute.IdlePower
	} else if d.Policy != nil {
		b.Compute = d.Policy.ComputePower()
	}
	if d.Radio != nil {
		b.Comm = d.Radio.ActiveTX
	}
	return b
}

// ConventionalNode builds the canonical today's-architecture node for a
// sensor: local MCU runs the workload, BLE ships the results.
func ConventionalNode(name string, s *sensors.Sensor, w *Workload) *NodeDesign {
	resultRate := 2 * units.Kbps // classification results / sync traffic
	return &NodeDesign{
		Name: name, Arch: Conventional,
		Sensor: s,
		Policy: isa.FeatureOnly{Label: "local results", EventsPerSecond: 25,
			BitsPerEvent: int(float64(resultRate) / 25), Power: 0},
		Radio:    radio.BLE42(),
		Compute:  partition.LeafMCU(),
		Workload: w,
	}
}

// HumanInspiredNode builds the paper's node for a sensor: stream (or
// ISA-reduce) over Wi-R, offload the workload to the hub.
func HumanInspiredNode(name string, s *sensors.Sensor, policy isa.Policy, w *Workload) *NodeDesign {
	if policy == nil {
		policy = isa.StreamAll{}
	}
	return &NodeDesign{
		Name: name, Arch: HumanInspired,
		Sensor:   s,
		Policy:   policy,
		Radio:    radio.WiR(),
		Workload: w, // runs on the hub; costs the leaf nothing
	}
}

// --- Network composition ---------------------------------------------------

// HubDesign is the on-body hub ("wearable brain").
type HubDesign struct {
	Name    string
	Radio   *radio.Transceiver
	Battery *energy.Battery
	Compute *partition.Platform
}

// DefaultHub returns a smartwatch-class hub: Wi-R radio, 300 mAh pack,
// NPU-class compute.
func DefaultHub() HubDesign {
	return HubDesign{
		Name:    "wearable brain",
		Radio:   radio.WiR(),
		Battery: energy.LiPo(300),
		Compute: partition.HubSoC(),
	}
}

// Network is a composed body-area network.
type Network struct {
	Name  string
	Hub   HubDesign
	Nodes []*NodeDesign
}

// Demands returns the TDMA demand set of the network (1 kB packets).
func (n *Network) Demands() []mac.Demand {
	var out []mac.Demand
	for i, d := range n.Nodes {
		out = append(out, mac.Demand{NodeID: i, Rate: d.LinkRate(), PacketBits: 8192})
	}
	return out
}

// TotalLinkRate sums all nodes' average rates.
func (n *Network) TotalLinkRate() units.DataRate {
	var t units.DataRate
	for _, d := range n.Nodes {
		t += d.LinkRate()
	}
	return t
}

// Schedulable checks the network against a TDMA configuration (the
// default Wi-R superframe if nil).
func (n *Network) Schedulable(t *mac.TDMA) error {
	if t == nil {
		t = mac.DefaultTDMA()
	}
	s, err := t.Build(n.Demands())
	if err != nil {
		return err
	}
	return s.Validate()
}

// HubComputeLoad returns the hub-side MAC/s from all offloaded workloads.
func (n *Network) HubComputeLoad() float64 {
	var macs float64
	for _, d := range n.Nodes {
		if d.Workload != nil && d.Arch == HumanInspired {
			macs += float64(d.Workload.Model.TotalMACs()) * d.Workload.PerSecond
		}
	}
	return macs
}

// HubPower estimates the hub's average power: receive side of all node
// traffic plus offloaded compute plus its idle floor.
func (n *Network) HubPower() units.Power {
	rx := units.Power(0)
	if n.Hub.Radio != nil {
		duty := float64(n.TotalLinkRate()) / float64(n.Hub.Radio.Goodput)
		if duty > 1 {
			duty = 1
		}
		rx = units.Power(duty * float64(n.Hub.Radio.ActiveRX))
	}
	comp := units.Power(0)
	if n.Hub.Compute != nil {
		comp = units.Power(float64(n.Hub.Compute.EnergyPerMAC)*n.HubComputeLoad()) +
			n.Hub.Compute.IdlePower
	}
	return rx + comp
}

// Summary renders the network as a table of node breakdowns plus hub load.
func (n *Network) Summary() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d nodes, hub %s)\n", n.Name, len(n.Nodes), n.Hub.Name)
	fmt.Fprintf(&b, "%-18s %-15s %-12s %-12s %-12s %-12s %s\n",
		"node", "arch", "link rate", "sense", "compute", "comm", "total")
	for _, d := range n.Nodes {
		br, err := d.AverageBreakdown()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-18s %-15s %-12v %-12v %-12v %-12v %v\n",
			d.Name, d.Arch, d.LinkRate(), br.Sense, br.Compute, br.Comm, br.Total())
	}
	fmt.Fprintf(&b, "aggregate link rate %v; hub power %v (compute %.1f MMAC/s)\n",
		n.TotalLinkRate(), n.HubPower(), n.HubComputeLoad()/1e6)
	return b.String(), nil
}
