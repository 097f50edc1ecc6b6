package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"wiban/internal/units"
)

// Dist summarizes a population sample: count, range, mean and the
// percentiles the paper's figures care about. Percentile indexing matches
// bannet's per-node convention (index ⌊n·p/100⌋ of the sorted sample).
type Dist struct {
	N                  int
	Min, Max, Mean     float64
	P10, P50, P90, P99 float64
}

func (d Dist) String() string {
	if d.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p10 %.3g / p50 %.3g / p90 %.3g / p99 %.3g (mean %.3g, range %.3g–%.3g, n=%d)",
		d.P10, d.P50, d.P90, d.P99, d.Mean, d.Min, d.Max, d.N)
}

// Report is the fleet-level aggregate of a population sweep. Every field
// is a pure function of the per-wearer reports taken in wearer-index
// order, so two runs of the same fleet seed produce byte-identical
// reports regardless of worker count — Fingerprint pins that.
type Report struct {
	Wearers int
	// Nodes is the total leaf-node count across the fleet (node-count mix
	// makes it a non-trivial multiple of Wearers).
	Nodes int
	Span  units.Duration
	// Events is the total discrete-event count across all shards.
	Events uint64

	// Fleet-wide traffic totals.
	PacketsGenerated int64
	PacketsDelivered int64
	PacketsDropped   int64
	Transmissions    int64
	BitsDelivered    int64
	HubRxBits        int64

	// Per-node population distributions.
	DeliveryRate     Dist // delivered/generated per node
	BatteryLifeHours Dist // projected battery life per node, in hours
	LatencyP50ms     Dist // per-node p50 delivery latency, in milliseconds
	LatencyP99ms     Dist // per-node p99 delivery latency, in milliseconds

	// Per-wearer hub utilization distribution.
	HubUtilization Dist

	// PerpetualFraction is the fraction of nodes meeting the paper's
	// perpetual-operation criterion; DiedFraction the fraction whose
	// battery died mid-run (DrainBattery scenarios).
	PerpetualFraction float64
	DiedFraction      float64

	// Cells are the per-cell statistics of a spectrum-coupled sweep,
	// sorted by cell index; empty (and omitted from the fingerprint
	// JSON) on uncoupled sweeps, so every pre-coupling fingerprint
	// replays unchanged. Only the streaming path populates them — the
	// batch Aggregate has no placement information.
	Cells []CellStat `json:",omitempty"`
}

// CellStat summarizes one spatial cell of a coupled sweep: how crowded
// the shared band was and what that did to its members. Populated cells
// only — a cell no wearer hashed into is not listed.
type CellStat struct {
	// Cell is the cell index in [0, Coupling.Cells).
	Cell int
	// Wearers and Nodes count the cell's members.
	Wearers int
	Nodes   int
	// MeanForeignLoad is the mean foreign co-channel offered load a
	// member saw, in erlangs — the cell's congestion level.
	MeanForeignLoad float64
	// MeanDelivery is the mean per-node delivery rate across the cell's
	// nodes (RF and body-channel alike).
	MeanDelivery float64
	// Died counts member nodes whose battery died mid-run.
	Died int
	// MeanEqForeignLoad is the mean *equilibrium* (collision-retry-
	// inflated) foreign load a member saw, in erlangs. Zero — and omitted
	// from the fingerprint JSON, so first-order fingerprints replay
	// unchanged — unless the sweep closed the feedback loop.
	MeanEqForeignLoad float64 `json:",omitempty"`
	// FeedbackIters is how many damped fixed-point rounds the cell's
	// equilibrium took (0 = already at equilibrium, e.g. a lone wearer;
	// a value equal to the coupling's MaxIters may mean the cap cut the
	// iteration short). Zero and omitted on first-order sweeps.
	FeedbackIters int `json:",omitempty"`
}

// Fingerprint returns a stable hex digest of the whole report. Two fleet
// runs agree byte-for-byte iff their fingerprints match; the determinism
// and parallelism-invariance tests compare these.
func (r *Report) Fingerprint() string {
	blob, err := json.Marshal(r)
	if err != nil {
		// Report is a plain value type; Marshal cannot fail on it.
		panic(fmt.Sprintf("fleet: fingerprint: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// String renders a multi-line summary for CLI output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d wearers, %d nodes, %v simulated each (%d events total)\n",
		r.Wearers, r.Nodes, r.Span, r.Events)
	fmt.Fprintf(&b, "  traffic:   %d generated, %d delivered, %d dropped (%d tx attempts)\n",
		r.PacketsGenerated, r.PacketsDelivered, r.PacketsDropped, r.Transmissions)
	fmt.Fprintf(&b, "  delivered: %.2f MB to hubs (%.2f MB payload)\n",
		float64(r.HubRxBits)/8e6, float64(r.BitsDelivered)/8e6)
	fmt.Fprintf(&b, "  delivery rate:    %v\n", r.DeliveryRate)
	fmt.Fprintf(&b, "  battery life [h]: %v\n", r.BatteryLifeHours)
	fmt.Fprintf(&b, "  p50 latency [ms]: %v\n", r.LatencyP50ms)
	fmt.Fprintf(&b, "  p99 latency [ms]: %v\n", r.LatencyP99ms)
	fmt.Fprintf(&b, "  hub utilization:  %v\n", r.HubUtilization)
	fmt.Fprintf(&b, "  perpetual nodes:  %.1f%%   died mid-run: %.1f%%",
		r.PerpetualFraction*100, r.DiedFraction*100)
	if len(r.Cells) > 0 {
		minD, maxD := r.Cells[0].MeanDelivery, r.Cells[0].MeanDelivery
		var load, eqLoad float64
		maxIters := 0
		for _, c := range r.Cells {
			load += c.MeanForeignLoad * float64(c.Wearers)
			eqLoad += c.MeanEqForeignLoad * float64(c.Wearers)
			if c.FeedbackIters > maxIters {
				maxIters = c.FeedbackIters
			}
			if c.MeanDelivery < minD {
				minD = c.MeanDelivery
			}
			if c.MeanDelivery > maxD {
				maxD = c.MeanDelivery
			}
		}
		fmt.Fprintf(&b, "\n  spectrum:  %d cells, mean foreign load %.3f erlangs, cell delivery %.3f–%.3f",
			len(r.Cells), load/float64(r.Wearers), minD, maxD)
		if eqLoad > 0 || maxIters > 0 {
			fmt.Fprintf(&b, "\n  feedback:  equilibrium foreign load %.3f erlangs (fixed point ≤%d rounds)",
				eqLoad/float64(r.Wearers), maxIters)
		}
	}
	return b.String()
}
