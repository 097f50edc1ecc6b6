package fleet

// The exact O(fleet) batch path: every per-wearer report materialized
// and aggregated with sorted-sample percentiles. The engine streams
// instead (StreamAggregator); this path is kept as the oracle the
// streaming aggregation is tested against.

import (
	"fmt"
	"sort"

	"wiban/internal/bannet"
	"wiban/internal/units"
)

// RunReports is the opt-in full-report path: it materializes every
// per-wearer report (O(fleet) memory) and aggregates them with the exact
// sorted-sample percentiles of Aggregate. The materialized reports carry
// no Schedule — the schedule is per-kernel arena state (see
// bannet.Sim.Schedule). Resume (Start > 0) is not supported here —
// partial sweeps only make sense streamed.
func (f *Fleet) RunReports() ([]*bannet.Report, *Report, Perf, error) {
	if f.Start != 0 || f.End != 0 {
		return nil, nil, Perf{}, fmt.Errorf("fleet: RunReports does not support a sub-range [%d,%d); stream it instead", f.Start, f.End)
	}
	if f.Wearers <= 0 {
		return nil, nil, Perf{}, fmt.Errorf("fleet: non-positive population %d", f.Wearers)
	}
	reports := make([]*bannet.Report, 0, f.Wearers)
	perf, err := f.stream(func(w int, out *wearerOut) error {
		// The emit callback borrows out until it returns (the buffer goes
		// back to the window pool), so materializing means copying.
		rep := out.rep
		rep.Nodes = append([]bannet.NodeStats(nil), out.rep.Nodes...)
		rep.Schedule = nil
		reports = append(reports, &rep)
		return nil
	})
	if err != nil {
		return nil, nil, Perf{}, err
	}
	return reports, Aggregate(f.Span, reports), perf, nil
}

// Aggregate merges per-wearer reports (indexed by wearer) into the fleet
// report. It iterates in slice order, which callers must keep equal to
// wearer-index order for reproducibility.
func Aggregate(span units.Duration, reports []*bannet.Report) *Report {
	rep := &Report{Wearers: len(reports), Span: span}
	var (
		delivery  []float64
		lifeHours []float64
		latP50    []float64
		latP99    []float64
		hubUtil   []float64
		perpetual int
		died      int
	)
	for _, r := range reports {
		rep.Events += r.Events
		rep.HubRxBits += r.HubRxBits
		hubUtil = append(hubUtil, r.HubUtilization)
		for i := range r.Nodes {
			n := &r.Nodes[i]
			rep.Nodes++
			rep.PacketsGenerated += n.PacketsGenerated
			rep.PacketsDelivered += n.PacketsDelivered
			rep.PacketsDropped += n.PacketsDropped
			rep.Transmissions += n.Transmissions
			rep.BitsDelivered += n.BitsDelivered
			delivery = append(delivery, n.DeliveryRate())
			lifeHours = append(lifeHours, float64(n.ProjectedLife)/float64(units.Hour))
			if n.PacketsDelivered > 0 {
				latP50 = append(latP50, float64(n.LatencyP50)*1e3)
				latP99 = append(latP99, float64(n.LatencyP99)*1e3)
			}
			if n.Perpetual {
				perpetual++
			}
			if n.Died {
				died++
			}
		}
	}
	rep.DeliveryRate = NewDist(delivery)
	rep.BatteryLifeHours = NewDist(lifeHours)
	rep.LatencyP50ms = NewDist(latP50)
	rep.LatencyP99ms = NewDist(latP99)
	rep.HubUtilization = NewDist(hubUtil)
	if rep.Nodes > 0 {
		rep.PerpetualFraction = float64(perpetual) / float64(rep.Nodes)
		rep.DiedFraction = float64(died) / float64(rep.Nodes)
	}
	return rep
}

// NewDist is the exact batch summary of samples, the oracle StreamDist is
// held to below its centroid budget. The slice is sorted in place; an
// empty sample yields the zero Dist.
func NewDist(samples []float64) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	// Sum before sorting so the mean reflects the caller's (wearer-index)
	// order — a fixed order is what makes the aggregate bit-reproducible.
	var sum float64
	for _, s := range samples {
		sum += s
	}
	sort.Float64s(samples)
	n := len(samples)
	return Dist{
		N:    n,
		Min:  samples[0],
		Max:  samples[n-1],
		Mean: sum / float64(n),
		P10:  samples[(n*10)/100],
		P50:  samples[n/2],
		P90:  samples[(n*90)/100],
		P99:  samples[(n*99)/100],
	}
}
