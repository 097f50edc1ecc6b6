// Package bannet is the discrete-event body-area-network simulator: the
// integration substrate where the channel, PHY, MAC, radio, sensor, ISA
// and energy models meet.
//
// A simulation owns one hub and a set of leaf nodes. Each node samples its
// sensor continuously, reduces the stream through its ISA policy,
// packetizes the result, and transmits during its TDMA slot; packets fail
// with the link's packet-error rate and are retransmitted in later
// superframes up to a retry budget. Every joule is attributed — sensing,
// ISA compute, radio transmit, beacon synchronization, sleep floor,
// harvesting — so a simulated hour extrapolates to the battery-life
// numbers the paper's figures plot.
package bannet

import (
	"fmt"

	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/mac"
	"wiban/internal/partition"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// NodeConfig describes one leaf node.
type NodeConfig struct {
	// ID must be unique; it doubles as the TDMA demand identity.
	ID int
	// Name labels the node in reports.
	Name string
	// Sensor is the node's front-end.
	Sensor *sensors.Sensor
	// Policy reduces the raw stream before the link (StreamAll for a dumb
	// node).
	Policy isa.Policy
	// Radio is the node's transceiver model.
	Radio *radio.Transceiver
	// Battery powers the node.
	Battery *energy.Battery
	// Harvester, if non-nil, recharges the battery.
	Harvester *energy.Harvester
	// PacketBits is the node's framing quantum.
	PacketBits int
	// PER is the link packet error rate (from the PHY link budget).
	PER float64
	// CollisionPER is additional per-attempt loss from co-channel
	// interference outside this network's control — cross-wearer
	// collisions in a shared unlicensed band (see internal/spectrum).
	// It combines with PER as 1−(1−PER)·(1−CollisionPER) at every
	// transmission attempt but does not enter TDMA slot provisioning:
	// the intra-BAN scheduler cannot see other bodies' traffic, which is
	// exactly why dense RF deployments degrade.
	CollisionPER float64
	// MaxRetries bounds retransmissions before a packet is dropped.
	MaxRetries int
	// Inference, if non-nil, attaches an offloaded AI task to the node's
	// stream: every InputBits of delivered payload forms one inference
	// job on the hub.
	Inference *InferenceSpec
	// DrainBattery, when true, debits the node's battery during the run
	// and kills the node when it empties (failure injection for
	// short-battery scenarios). When false the battery only scales the
	// ProjectedLife extrapolation.
	DrainBattery bool
}

// InferenceSpec describes an offloaded DNN task.
type InferenceSpec struct {
	// Name labels the task.
	Name string
	// MACs is the hub-side cost per inference.
	MACs int64
	// InputBits is the delivered payload per inference input.
	InputBits int64
}

// Config describes a simulation.
type Config struct {
	// Seed drives all randomness (packet errors, harvester variation).
	Seed int64
	// TDMA describes the shared-medium schedule (DefaultTDMA if nil).
	TDMA *mac.TDMA
	// Nodes are the leaf nodes.
	Nodes []NodeConfig
	// HubCompute is the hub's inference platform (partition.HubSoC if
	// nil).
	HubCompute *partition.Platform
	// SeriesEvery, when positive, samples every node into Report.Series
	// at this cadence, quantized up to the TDMA superframe (samples are
	// taken at superframe boundaries, before the frame is processed),
	// plus one final sample at the end of the span if the cadence did
	// not land there. Sampling draws no RNG and adds no ticks, so every
	// other Report field — Events included — is identical with sampling
	// on or off.
	SeriesEvery units.Duration
}

// NodeStats is the per-node outcome of a run.
type NodeStats struct {
	Name string
	// Traffic accounting.
	PacketsGenerated int64
	PacketsDelivered int64
	PacketsDropped   int64
	Transmissions    int64 // attempts, including retries
	BitsDelivered    int64
	// Energy breakdown over the simulated span.
	SenseEnergy units.Energy
	ISAEnergy   units.Energy
	TxEnergy    units.Energy
	SyncEnergy  units.Energy
	SleepEnergy units.Energy
	Harvested   units.Energy
	// AvgPower is net consumption averaged over the run.
	AvgPower units.Power
	// ProjectedLife extrapolates the node's battery at AvgPower.
	ProjectedLife units.Duration
	// Perpetual reports the paper's criterion: > 1 year projected life or
	// harvest covering consumption.
	Perpetual bool
	// Latency percentiles over delivered packets (creation → delivery).
	LatencyP50, LatencyP99 units.Duration
	// Inference accounting (when the node carries an InferenceSpec):
	// end-to-end latency runs from the first sample of an input window to
	// hub-side inference completion.
	Inferences                 int64
	InferenceP50, InferenceP99 units.Duration
	// Died reports battery exhaustion during the run (only with
	// DrainBattery); DiedAt is the death time from simulation start.
	Died   bool
	DiedAt units.Duration
}

// TotalEnergy sums the consumption components.
func (s *NodeStats) TotalEnergy() units.Energy {
	return s.SenseEnergy + s.ISAEnergy + s.TxEnergy + s.SyncEnergy + s.SleepEnergy
}

// DeliveryRate is delivered/generated (1 for an idle node).
func (s *NodeStats) DeliveryRate() float64 {
	if s.PacketsGenerated == 0 {
		return 1
	}
	return float64(s.PacketsDelivered) / float64(s.PacketsGenerated)
}

// Report is the outcome of a run.
type Report struct {
	Duration  units.Duration
	Nodes     []NodeStats
	HubRxBits int64
	// HubRxEnergy is the hub's receive-side energy (charged to the hub's
	// daily-charged battery).
	HubRxEnergy units.Energy
	// HubComputeEnergy is the hub-side inference energy.
	HubComputeEnergy units.Energy
	// HubUtilization is the fraction of the span the hub NPU was busy.
	HubUtilization float64
	Schedule       *mac.Schedule
	Events         uint64
	// Series holds the in-run samples when Config.SeriesEvery is
	// positive: one point per node per sampling instant, in (time, node)
	// order. RunInto reuses its backing array, like Nodes'.
	Series []telemetry.SeriesPoint
}

// Run simulates the network for the given span and returns the report.
// It is shorthand for NewSim followed by a single Sim.Run; callers that
// replay a scenario repeatedly should hold the Sim and call Run on it to
// reuse the validated schedule and preallocated buffers.
func Run(cfg Config, span units.Duration) (*Report, error) {
	if span <= 0 {
		return nil, fmt.Errorf("bannet: non-positive span")
	}
	sim, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(span)
}

// NodeByName returns the stats for a named node, or nil.
func (r *Report) NodeByName(name string) *NodeStats {
	for i := range r.Nodes {
		if r.Nodes[i].Name == name {
			return &r.Nodes[i]
		}
	}
	return nil
}
