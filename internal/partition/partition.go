// Package partition implements split computing for wearable DNNs: given a
// network, a leaf-node compute platform, an on-body hub, and a link, it
// decides how much of the network (possibly none) should run on the leaf
// before the activations cross the link.
//
// This is the quantitative heart of the paper's architecture question:
// "why can't wearable networks mimic the centralized CPU architecture
// found in humans?" The answer it gives — radio energy per bit dwarfs
// compute energy per operation, so BLE-era nodes are forced to compute
// locally, while a 100 pJ/bit artificial nervous system lets the leaf
// transmit early and shed its CPU — falls directly out of the per-cut
// energy accounting below.
package partition

import (
	"fmt"
	"math"
	"sort"

	"wiban/internal/nn"
	"wiban/internal/radio"
	"wiban/internal/units"
)

// Platform is a compute platform's marginal energy and throughput.
type Platform struct {
	Name string
	// EnergyPerMAC is the marginal energy per multiply-accumulate.
	EnergyPerMAC units.Energy
	// MACRate is the sustained throughput in MACs per second.
	MACRate float64
	// IdlePower is the floor the platform burns while powered but idle.
	IdlePower units.Power
}

// LeafMCU returns a Cortex-M-class microcontroller: ≈ 30 pJ/MAC at
// 50 MMAC/s — the CPU today's wearables embed.
func LeafMCU() *Platform {
	return &Platform{Name: "leaf MCU", EnergyPerMAC: 30 * units.Picojoule,
		MACRate: 50e6, IdlePower: 30 * units.Microwatt}
}

// LeafAccelerator returns a dedicated in-sensor inference accelerator:
// ≈ 4 pJ/MAC at 200 MMAC/s (the "ISA" block of the human-inspired node).
func LeafAccelerator() *Platform {
	return &Platform{Name: "leaf accelerator", EnergyPerMAC: 4 * units.Picojoule,
		MACRate: 200e6, IdlePower: 5 * units.Microwatt}
}

// HubSoC returns the on-body hub ("wearable brain"): an application-class
// NPU at 8 pJ/MAC sustaining 10 GMAC/s. Its energy is charged to the hub's
// daily-charged battery, not the leaf's.
func HubSoC() *Platform {
	return &Platform{Name: "hub SoC", EnergyPerMAC: 8 * units.Picojoule,
		MACRate: 10e9, IdlePower: 50 * units.Milliwatt}
}

// Link is the communication side of a cut.
type Link struct {
	Name         string
	EnergyPerBit units.EnergyPerBit
	Rate         units.DataRate
	// PerTransferOverhead is paid once per inference (radio wake,
	// framing).
	PerTransferOverhead units.Energy
}

// FromTransceiver derives a Link from a radio transceiver model.
func FromTransceiver(tr *radio.Transceiver) Link {
	return Link{
		Name:                tr.Name,
		EnergyPerBit:        tr.EnergyPerGoodBit(),
		Rate:                tr.Goodput,
		PerTransferOverhead: tr.WakeEnergy,
	}
}

// Cut is the evaluation of splitting the model before layer Index: the
// leaf computes layers [0, Index), transmits that activation, and the hub
// computes [Index, N). Index 0 streams the raw input (the sensor-only
// node); Index N runs everything locally and transmits only the result.
type Cut struct {
	Index    int
	LeafMACs int64
	HubMACs  int64
	// TxBits is the activation (or input/result) volume crossing the link.
	TxBits int64
	// LeafComputeEnergy, TxEnergy and LeafEnergy are per-inference leaf
	// costs (LeafEnergy = compute + transmit + overhead).
	LeafComputeEnergy units.Energy
	TxEnergy          units.Energy
	LeafEnergy        units.Energy
	// HubEnergy is the per-inference hub-side cost (for completeness; the
	// hub charges daily).
	HubEnergy units.Energy
	// Latency is leaf compute + transfer + hub compute for one inference.
	Latency units.Duration
}

// Config describes a split-computing problem.
type Config struct {
	Model *nn.Sequential
	Leaf  *Platform
	Hub   *Platform
	Link  Link
	// BitsPerElement is the activation wire format (8 for int8).
	BitsPerElement int
	// ResultBits is the size of the final result returned when the model
	// runs fully on the leaf (defaults to output elems × BitsPerElement).
	ResultBits int64
}

// validate fills defaults and checks the configuration.
func (c *Config) validate() error {
	if c.Model == nil || c.Leaf == nil || c.Hub == nil {
		return fmt.Errorf("partition: model, leaf and hub are required")
	}
	if c.BitsPerElement <= 0 {
		c.BitsPerElement = 8
	}
	if c.Link.Rate <= 0 {
		return fmt.Errorf("partition: link rate must be positive")
	}
	return nil
}

// elemsAt returns the activation element count entering layer i.
func elemsAt(m *nn.Sequential, i int) int64 {
	n := int64(1)
	for _, d := range m.ShapeAt(i) {
		n *= int64(d)
	}
	return n
}

// Evaluate computes every cut 0..N for the configuration.
func Evaluate(cfg Config) ([]Cut, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := cfg.Model
	profiles := m.Profiles()
	n := m.NumLayers()

	// Prefix MAC sums.
	prefix := make([]int64, n+1)
	for i, p := range profiles {
		prefix[i+1] = prefix[i] + p.MACs
	}
	total := prefix[n]

	resultBits := cfg.ResultBits
	if resultBits <= 0 {
		resultBits = elemsAt(m, n) * int64(cfg.BitsPerElement)
	}

	cuts := make([]Cut, 0, n+1)
	for k := 0; k <= n; k++ {
		var txBits int64
		if k == n {
			txBits = resultBits
		} else {
			txBits = elemsAt(m, k) * int64(cfg.BitsPerElement)
		}
		leafMACs := prefix[k]
		hubMACs := total - leafMACs

		compute := units.Energy(float64(cfg.Leaf.EnergyPerMAC) * float64(leafMACs))
		tx := cfg.Link.EnergyPerBit.EnergyFor(float64(txBits))
		leaf := compute + tx + cfg.Link.PerTransferOverhead

		latency := units.Duration(float64(leafMACs)/cfg.Leaf.MACRate) +
			cfg.Link.Rate.TimeFor(float64(txBits)) +
			units.Duration(float64(hubMACs)/cfg.Hub.MACRate)

		cuts = append(cuts, Cut{
			Index:             k,
			LeafMACs:          leafMACs,
			HubMACs:           hubMACs,
			TxBits:            txBits,
			LeafComputeEnergy: compute,
			TxEnergy:          tx,
			LeafEnergy:        leaf,
			HubEnergy:         units.Energy(float64(cfg.Hub.EnergyPerMAC) * float64(hubMACs)),
			Latency:           latency,
		})
	}
	return cuts, nil
}

// Best returns the cut minimizing leaf energy (ties break toward the
// earlier cut — less leaf silicon).
func Best(cuts []Cut) (Cut, error) {
	if len(cuts) == 0 {
		return Cut{}, fmt.Errorf("partition: no cuts")
	}
	best := cuts[0]
	for _, c := range cuts[1:] {
		if c.LeafEnergy < best.LeafEnergy {
			best = c
		}
	}
	return best, nil
}

// BestUnderLatency returns the minimum-leaf-energy cut whose latency is
// within the deadline. It returns an error if no cut qualifies.
func BestUnderLatency(cuts []Cut, deadline units.Duration) (Cut, error) {
	found := false
	var best Cut
	for _, c := range cuts {
		if c.Latency > deadline {
			continue
		}
		if !found || c.LeafEnergy < best.LeafEnergy {
			best = c
			found = true
		}
	}
	if !found {
		return Cut{}, fmt.Errorf("partition: no cut meets %v deadline", deadline)
	}
	return best, nil
}

// Pareto returns the non-dominated cuts in (leaf energy, latency),
// sorted by leaf energy.
func Pareto(cuts []Cut) []Cut {
	sorted := append([]Cut(nil), cuts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].LeafEnergy != sorted[j].LeafEnergy {
			return sorted[i].LeafEnergy < sorted[j].LeafEnergy
		}
		return sorted[i].Latency < sorted[j].Latency
	})
	var front []Cut
	bestLat := units.Duration(math.Inf(1))
	for _, c := range sorted {
		if c.Latency < bestLat {
			front = append(front, c)
			bestLat = c.Latency
		}
	}
	return front
}

// Describe renders a one-line summary of the cut.
func (c Cut) Describe() string {
	return fmt.Sprintf("cut@%d: leaf %d MACs + %d bits → %v/inf, %v latency",
		c.Index, c.LeafMACs, c.TxBits, c.LeafEnergy, c.Latency)
}
