package fleet

import (
	"fmt"
	"sort"

	"wiban/internal/bannet"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// Sink consumes per-wearer telemetry records. The engine guarantees
// strict wearer-index order with no gaps and serializes calls, so a Sink
// needs no locking; a Sink error aborts the sweep. Both the streaming
// aggregator and the telemetry store's Writer are Sinks, and Tee fans one
// stream into several.
//
// Serialized does not mean one goroutine: successive Consume calls may
// come from different worker goroutines (each call happens-after the
// previous one returns), and they run while later wearers are being
// simulated. With one worker the engine is in lockstep: Consume for
// wearer k returns before wearer k+1's scenario is built.
//
// Records are borrowed until Consume returns: the engine reuses the
// record's storage — in particular the backing arrays of rec.Nodes and
// rec.Series — for later wearers, so a Sink that keeps any slice-typed
// field past the call must copy it. Scalar fields may be copied freely.
// StreamAggregator folds everything it needs during the call, and
// telemetry.Writer copies the node and series slices into its block
// arena; a custom Sink must follow the same discipline.
type Sink interface {
	Consume(rec telemetry.Record) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(rec telemetry.Record) error

// Consume calls f.
func (f SinkFunc) Consume(rec telemetry.Record) error { return f(rec) }

// Tee fans each record into every sink, in argument order, stopping at
// the first error.
func Tee(sinks ...Sink) Sink {
	return SinkFunc(func(rec telemetry.Record) error {
		for _, s := range sinks {
			if err := s.Consume(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// recordInto flattens one wearer's simulation report into its telemetry
// record — exactly the fields fleet aggregation consumes, with durations
// in seconds. The spectrum placement defaults to the uncoupled sentinel
// (cell −1); the engine's Stream overwrites it on coupled sweeps, and
// rec.Series aliases the report's samples. It overwrites every field of
// rec, reusing rec.Nodes' capacity: the engine calls it with one
// long-lived record per sweep — the Sink borrow-until-return contract
// exists exactly so this reuse is sound.
func recordInto(rec *telemetry.Record, wearer int, r *bannet.Report) {
	rec.Wearer = wearer
	rec.Events = r.Events
	rec.HubRxBits = r.HubRxBits
	rec.HubUtilization = r.HubUtilization
	rec.Cell = -1
	rec.ForeignLoadPPM = 0
	rec.EqForeignLoadPPM = 0
	rec.FeedbackIters = 0
	rec.Series = r.Series
	rec.Nodes = rec.Nodes[:0]
	for i := range r.Nodes {
		n := &r.Nodes[i]
		rec.Nodes = append(rec.Nodes, telemetry.NodeRecord{
			PacketsGenerated: n.PacketsGenerated,
			PacketsDelivered: n.PacketsDelivered,
			PacketsDropped:   n.PacketsDropped,
			Transmissions:    n.Transmissions,
			BitsDelivered:    n.BitsDelivered,
			ProjectedLife:    float64(n.ProjectedLife),
			LatencyP50:       float64(n.LatencyP50),
			LatencyP99:       float64(n.LatencyP99),
			Perpetual:        n.Perpetual,
			Died:             n.Died,
		})
	}
}

// StreamAggregator folds a stream of wearer records into a fleet Report
// in constant memory: totals and fractions are exact, the five population
// distributions keep exact count/min/max/mean and histogram-estimated
// percentiles (see StreamDist). It is the engine's default sink.
type StreamAggregator struct {
	span    units.Duration
	wearers int
	nodes   int
	events  uint64

	pktGen, pktDel, pktDrop, tx, bits, hubRx int64
	perpetual, died                          int

	delivery, life, latP50, latP99, hubUtil *StreamDist

	// cells accumulates per-cell statistics of a coupled sweep, keyed by
	// cell index. Float sums run in record (wearer-index) order, which
	// the engine guarantees, so the rendered CellStats are deterministic.
	cells map[int]*cellAcc
}

// cellAcc is the running per-cell accumulator.
type cellAcc struct {
	wearers, nodes, died int
	foreignPPM           int64
	eqForeignPPM         int64
	iters                int
	deliverySum          float64
}

// NewStreamAggregator returns an empty aggregator for sweeps of the given
// per-wearer span.
func NewStreamAggregator(span units.Duration) *StreamAggregator {
	return &StreamAggregator{
		span:     span,
		delivery: NewStreamDist(0),
		life:     NewStreamDist(0),
		latP50:   NewStreamDist(0),
		latP99:   NewStreamDist(0),
		hubUtil:  NewStreamDist(0),
	}
}

// Consume folds one wearer record; it implements Sink. The derived
// figures mirror Aggregate exactly: delivery rate is 1 for idle nodes,
// latency distributions only include nodes that delivered traffic.
func (a *StreamAggregator) Consume(rec telemetry.Record) error {
	a.wearers++
	a.events += rec.Events
	a.hubRx += rec.HubRxBits
	a.hubUtil.Add(rec.HubUtilization)
	var cell *cellAcc
	if rec.Cell >= 0 {
		if a.cells == nil {
			a.cells = make(map[int]*cellAcc)
		}
		cell = a.cells[rec.Cell]
		if cell == nil {
			cell = &cellAcc{}
			a.cells[rec.Cell] = cell
		}
		cell.wearers++
		cell.foreignPPM += rec.ForeignLoadPPM
		cell.eqForeignPPM += rec.EqForeignLoadPPM
		if rec.FeedbackIters > cell.iters {
			cell.iters = rec.FeedbackIters
		}
	}
	for i := range rec.Nodes {
		n := &rec.Nodes[i]
		a.nodes++
		a.pktGen += n.PacketsGenerated
		a.pktDel += n.PacketsDelivered
		a.pktDrop += n.PacketsDropped
		a.tx += n.Transmissions
		a.bits += n.BitsDelivered
		rate := 1.0
		if n.PacketsGenerated > 0 {
			rate = float64(n.PacketsDelivered) / float64(n.PacketsGenerated)
		}
		a.delivery.Add(rate)
		a.life.Add(n.ProjectedLife / float64(units.Hour))
		if n.PacketsDelivered > 0 {
			a.latP50.Add(n.LatencyP50 * 1e3)
			a.latP99.Add(n.LatencyP99 * 1e3)
		}
		if n.Perpetual {
			a.perpetual++
		}
		if n.Died {
			a.died++
		}
		if cell != nil {
			cell.nodes++
			cell.deliverySum += rate
			if n.Died {
				cell.died++
			}
		}
	}
	return nil
}

// Wearers reports how many records have been folded in — after a replay,
// the index the interrupted sweep resumes from.
func (a *StreamAggregator) Wearers() int { return a.wearers }

// Report renders the aggregate. It may be called repeatedly; the
// aggregator keeps accepting records afterwards.
func (a *StreamAggregator) Report() *Report {
	rep := &Report{
		Wearers:          a.wearers,
		Nodes:            a.nodes,
		Span:             a.span,
		Events:           a.events,
		PacketsGenerated: a.pktGen,
		PacketsDelivered: a.pktDel,
		PacketsDropped:   a.pktDrop,
		Transmissions:    a.tx,
		BitsDelivered:    a.bits,
		HubRxBits:        a.hubRx,
		DeliveryRate:     a.delivery.Dist(),
		BatteryLifeHours: a.life.Dist(),
		LatencyP50ms:     a.latP50.Dist(),
		LatencyP99ms:     a.latP99.Dist(),
		HubUtilization:   a.hubUtil.Dist(),
	}
	if rep.Nodes > 0 {
		rep.PerpetualFraction = float64(a.perpetual) / float64(rep.Nodes)
		rep.DiedFraction = float64(a.died) / float64(rep.Nodes)
	}
	if len(a.cells) > 0 {
		ids := make([]int, 0, len(a.cells))
		for id := range a.cells {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		rep.Cells = make([]CellStat, 0, len(ids))
		for _, id := range ids {
			c := a.cells[id]
			cs := CellStat{Cell: id, Wearers: c.wearers, Nodes: c.nodes, Died: c.died, FeedbackIters: c.iters}
			cs.MeanForeignLoad = float64(c.foreignPPM) / float64(c.wearers) / 1e6
			cs.MeanEqForeignLoad = float64(c.eqForeignPPM) / float64(c.wearers) / 1e6
			if c.nodes > 0 {
				cs.MeanDelivery = c.deliverySum / float64(c.nodes)
			}
			rep.Cells = append(rep.Cells, cs)
		}
	}
	return rep
}

// Replay feeds every committed record of a store into sink, in order, and
// returns how many it fed — added to the store's first wearer, the index
// a resumed sweep starts at (a shard store's records begin at
// Meta.FirstWearer, not 0). Records arrive with Series nil: the walk
// (telemetry.Reader.EachRecord) checks every series frame but builds no
// samples, which no aggregate reads. Memory stays bounded by one
// telemetry block.
func Replay(r *telemetry.Reader, sink Sink) (int, error) {
	n := 0
	err := r.EachRecord(func(rec telemetry.Record) error {
		if err := sink.Consume(rec); err != nil {
			return fmt.Errorf("wearer %d: %w", rec.Wearer, err)
		}
		n++
		return nil
	})
	if err != nil {
		return n, fmt.Errorf("fleet: replay: %w", err)
	}
	return n, nil
}
