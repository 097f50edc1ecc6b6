package telemetry

import (
	"fmt"
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
	// negative matches every cell (including the uncoupled sentinel -1 is
	// not expressible — uncoupled stores match only via negative Cell).
	Cell int
	// Node restricts samples to this node index within each wearer;
	// negative matches every node class.
	Node int
}

// metric returns the column extractor for q.Metric.
func (q *Query) metric() (func(p *SeriesPoint) float64, error) {
	switch q.Metric {
	case "charge":
		return func(p *SeriesPoint) float64 { return p.Charge }, nil
	case "queue":
		return func(p *SeriesPoint) float64 { return float64(p.QueueDepth) }, nil
	case "per":
		return func(p *SeriesPoint) float64 { return p.LinkPER }, nil
	case "collisions":
		return func(p *SeriesPoint) float64 { return p.CollisionRate }, nil
	default:
		return nil, fmt.Errorf("telemetry: unknown series metric %q (want charge, queue, per or collisions)", q.Metric)
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

// fold filters one record's samples through the query.
func (s *SeriesStats) fold(q *Query, get func(p *SeriesPoint) float64, rec *Record) {
	if q.Cell >= 0 && rec.Cell != q.Cell {
		return
	}
	for i := range rec.Series {
		p := &rec.Series[i]
		if q.Node >= 0 && p.Node != q.Node {
			continue
		}
		if p.TimeMS < q.FromMS || (q.ToMS > 0 && p.TimeMS > q.ToMS) {
			continue
		}
		s.add(get(p))
	}
}

// QueryStore aggregates the series samples of the store at path that
// match q. When the store carries its trailing query index (every
// completely written v3 store does) only the blocks whose index entry
// overlaps the predicate are read — a narrow time- or cell-bounded query
// touches a fraction of the file. Without the index (a killed run not
// yet resumed) it degrades to a sequential scan of the committed prefix.
func QueryStore(path string, q Query) (*SeriesStats, error) {
	get, err := q.metric()
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
	stats := &SeriesStats{}
	if entries, ok := r.loadIndex(); ok {
		for i := range entries {
			e := &entries[i]
			if !q.admits(e) {
				continue
			}
			recs, _, err := readFrameAt(r.f, e.recOffset, r.ck.Offset, r.meta.Version)
			if err != nil {
				return nil, fmt.Errorf("telemetry: query: %w", err)
			}
			if _, err := readSeriesFrameAt(nil, r.f, e.serOffset, r.ck.Offset, recs, nil); err != nil {
				return nil, fmt.Errorf("telemetry: query: %w", err)
			}
			for j := range recs {
				stats.fold(&q, get, &recs[j])
			}
		}
		return stats, nil
	}
	// No usable index: walk every committed block.
	if err := r.Each(func(rec Record) error {
		stats.fold(&q, get, &rec)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("telemetry: query: %w", err)
	}
	return stats, nil
}

// loadIndex locates and decodes the trailing query-index frame of a
// completely written store. The index is written immediately past the
// final checkpoint offset, so the checkpoint the reader opened with
// points straight at it, and record frames are read under that offset;
// any inconsistency (no trusted checkpoint, no trailing frame, frame of
// the wrong kind, trailing bytes past it) reports ok=false and the caller
// falls back to a sequential scan.
func (r *Reader) loadIndex() (entries []indexEntry, ok bool) {
	if r.meta.Version < FormatV3 || r.ck == nil || r.ck.Offset >= r.size {
		return nil, false
	}
	frame, err := readFrame(nil, r.f, r.ck.Offset, r.size)
	if err != nil || r.ck.Offset+int64(len(frame)) != r.size {
		return nil, false
	}
	kind, body, err := splitKind(framePayload(frame), r.meta.Version)
	if err != nil || kind != kindIndex {
		return nil, false
	}
	entries, err = decodeIndexBody(body)
	if err != nil {
		return nil, false
	}
	return entries, true
}
