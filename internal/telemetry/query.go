package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Query selects series samples from a v3 store for aggregation. The zero
// value with Cell and Node set to -1 selects every sample of the store.
type Query struct {
	// Metric names the sampled column to aggregate: "charge" (battery
	// fraction remaining), "queue" (TX queue depth), "per" (per-window
	// link packet-error rate) or "collisions" (per-window collision
	// rate).
	Metric string
	// FromMS / ToMS bound the sample time in simulated milliseconds,
	// inclusive on both ends. ToMS <= 0 leaves the range open above.
	FromMS int64
	ToMS   int64
	// Cell restricts samples to wearers placed in this spectrum cell;
	// negative matches every cell. An uncoupled store's wearers carry the
	// sentinel cell -1, so only a negative Cell matches them.
	Cell int
	// Node restricts samples to this node index within each wearer;
	// negative matches every node class.
	Node int
}

// column returns the position of q.Metric's column in
// seriesFrame.children.
func (q *Query) column() (int, error) {
	switch q.Metric {
	case "charge":
		return seriesChargeColumn, nil
	case "queue":
		return seriesQueueColumn, nil
	case "per":
		return seriesPERColumn, nil
	case "collisions":
		return seriesCollisionsColumn, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown series metric %q (want charge, queue, per or collisions)", q.Metric)
	}
}

// admits reports whether a block summarized by e can hold any sample the
// query selects — the index-pruning predicate. It must never reject a
// block holding a matching sample; rejecting too little only costs I/O.
func (q *Query) admits(e *indexEntry) bool {
	if e.points == 0 {
		return false
	}
	if q.FromMS > e.maxTimeMS || (q.ToMS > 0 && q.ToMS < e.minTimeMS) {
		return false
	}
	if q.Cell >= 0 && (q.Cell < e.minCell || q.Cell > e.maxCell) {
		return false
	}
	if q.Node >= 0 && q.Node >= e.maxNodes {
		return false
	}
	return true
}

// SeriesStats aggregates the selected samples: exact sum/min/max/mean
// plus exact sorted-sample percentiles (the same batch convention as the
// fleet's Dist: rank floor(n·pct/100)). NaN samples — the encoder's
// marker for windows with no transmission attempts — are counted as Gaps
// and excluded from every statistic, mirroring StreamDist's NaN policy.
type SeriesStats struct {
	Points int // finite samples folded in
	Gaps   int // NaN samples (empty windows) excluded
	Sum    float64
	Min    float64
	Max    float64

	values []float64
	sorted bool
}

// add folds one sample value.
func (s *SeriesStats) add(v float64) {
	if math.IsNaN(v) {
		s.Gaps++
		return
	}
	if s.Points == 0 || v < s.Min {
		s.Min = v
	}
	if s.Points == 0 || v > s.Max {
		s.Max = v
	}
	s.Points++
	s.Sum += v
	s.values = append(s.values, v)
	s.sorted = false
}

// Mean is Sum over Points, 0 when no sample matched.
func (s *SeriesStats) Mean() float64 {
	if s.Points == 0 {
		return 0
	}
	return s.Sum / float64(s.Points)
}

// Percentile returns the exact pct-th percentile of the matched samples
// (rank floor(n·pct/100), clamped), 0 when no sample matched.
func (s *SeriesStats) Percentile(pct float64) float64 {
	if s.Points == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	idx := int(float64(len(s.values)) * pct / 100)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s.values) {
		idx = len(s.values) - 1
	}
	return s.values[idx]
}

// foldPair folds the samples q selects from a pair decoded under q's
// mask: rec and ser are its views, ser holding the metric column col.
// Samples are visited in the order they were written in.
func (s *SeriesStats) foldPair(q *Query, col int, rec, ser *bodyView) {
	cells := rec.records.ints[recordCellColumn]
	nodes := ser.children.ints[seriesNodeColumn]
	times := ser.children.ints[seriesTimeColumn]
	ints, floats := ser.children.ints[col], ser.children.floats[col]
	xor := seriesFrame.children[col].codec == xorCodec
	k := 0
	for i, n := range ser.counts {
		end := k + int(n)
		if q.Cell >= 0 && int(cells[i]) != q.Cell {
			k = end
			continue
		}
		for ; k < end; k++ {
			if q.Node >= 0 && int(nodes[k]) != q.Node {
				continue
			}
			if t := times[k]; t < q.FromMS || (q.ToMS > 0 && t > q.ToMS) {
				continue
			}
			if xor {
				s.add(floats[k])
			} else {
				s.add(float64(int(ints[k])))
			}
		}
	}
}

// QueryStore aggregates the series samples of the store at path that
// match q. It reads only the record+series pairs whose index entry
// admits the predicate, each under a mask that keeps the cell, node,
// time and metric columns, checks the rest as strictly, and builds no
// rows. The index is the trailing frame of a completely written store;
// without it (a killed run not yet resumed) the walk of the committed
// prefix folds each pair its fresh entry admits, so both paths fold the
// same samples in the same order.
func QueryStore(path string, q Query) (*SeriesStats, error) {
	col, err := q.column()
	if err != nil {
		return nil, err
	}
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if !r.meta.Series() {
		return nil, fmt.Errorf("telemetry: store %s (format v%d) holds no series samples; re-run the sweep with a series cadence",
			path, r.meta.Version)
	}
	m := mask{points: 1<<seriesNodeColumn | 1<<col}
	stats := &SeriesStats{}
	entries, ok := r.loadIndex()
	if !ok {
		for {
			if err := r.advance(m); err == io.EOF {
				return stats, nil
			} else if err != nil {
				return nil, fmt.Errorf("telemetry: query: %w", err)
			}
			if q.admits(&r.entries[len(r.entries)-1]) {
				stats.foldPair(&q, col, &r.rec, &r.ser)
			}
		}
	}
	for i := range entries {
		e := &entries[i]
		if !q.admits(e) {
			continue
		}
		if _, err := r.nextBlock(e.recOffset, e.firstWearer, m); err != nil {
			return nil, fmt.Errorf("telemetry: query: %w", err)
		}
		stats.foldPair(&q, col, &r.rec, &r.ser)
	}
	return stats, nil
}

// loadIndex locates and decodes the trailing query-index frame of a
// completely written store. The index is written immediately past the
// final checkpoint offset, so the checkpoint the reader opened with
// points straight at it, and record frames are read under that offset;
// any inconsistency (no trusted checkpoint, no trailing frame, frame of
// the wrong kind, trailing bytes past it) reports ok=false, and the
// caller walks the committed prefix instead.
func (r *Reader) loadIndex() (entries []indexEntry, ok bool) {
	if r.meta.Version < FormatV3 || r.ck == nil || r.ck.Offset >= r.size {
		return nil, false
	}
	frame, body, err := readKind(nil, r.f, r.ck.Offset, r.size, r.meta.Version, kindIndex)
	if err != nil || r.ck.Offset+int64(len(frame)) != r.size {
		return nil, false
	}
	entries, err = decodeIndexBody(body)
	if err != nil {
		return nil, false
	}
	return entries, true
}
