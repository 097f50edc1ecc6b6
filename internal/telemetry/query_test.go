package telemetry

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// refValue is q's metric read off a built sample.
func refValue(q *Query, p *SeriesPoint) float64 {
	switch q.Metric {
	case "charge":
		return p.Charge
	case "queue":
		return float64(p.QueueDepth)
	case "per":
		return p.LinkPER
	default:
		return p.CollisionRate
	}
}

// refFold is the reference fold QueryStore's projected reads must match
// bit for bit: it filters one fully built record's samples through q,
// one SeriesPoint at a time.
func refFold(s *SeriesStats, q *Query, rec *Record) {
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
		s.add(refValue(q, p))
	}
}

// refStats is the brute-force reference: fold every sample of
// seriesRecord(0..n) matching q through the same NaN policy, in the same
// (wearer, sample) order the store's block walk visits — so float sums
// must match QueryStore exactly, not just approximately.
func refStats(n int, q Query) *SeriesStats {
	stats := &SeriesStats{}
	for w := 0; w < n; w++ {
		rec := seriesRecord(w)
		refFold(stats, &q, &rec)
	}
	return stats
}

// refQuery answers q over the store at path by replaying every record a
// full-decode Reader.Each hands over through refFold.
func refQuery(path string, q Query) (*SeriesStats, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	stats := &SeriesStats{}
	return stats, r.Each(func(rec Record) error {
		refFold(stats, &q, &rec)
		return nil
	})
}

// statsBits renders every answer SeriesStats gives, floats as their bits.
func statsBits(s *SeriesStats) string {
	return fmt.Sprintf("points=%d gaps=%d sum=%#x min=%#x max=%#x p50=%#x", s.Points, s.Gaps,
		math.Float64bits(s.Sum), math.Float64bits(s.Min), math.Float64bits(s.Max),
		math.Float64bits(s.Percentile(50)))
}

// FuzzQueryStore is QueryStore's differential test. The bytes draw a
// small series store — uncoupled or with cells, NaN gap windows, block
// size 1–16 — and a Query (metric, time bounds with ToMS open or not,
// cell, node). QueryStore's answer must equal, bit for bit, refFold over
// the records a full-decode Reader replays: through the trailing index,
// and through the check-only walk that replaces it when the index frame
// is cut or the sidecar that locates it is removed. A flipped byte
// inside a block the query admits must fail both.
func FuzzQueryStore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{17, 3, 1, 4, 2, 200, 9, 0, 5, 1, 2, 3, 44, 91, 7, 250})
	f.Add([]byte{39, 15, 0, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{8, 0, 2, 1, 255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return int(b)
		}
		meta := Meta{FleetSeed: 7, Wearers: 1 + next()%40, SpanSeconds: 4, BlockSize: 1 + next()%16,
			Version: FormatV3, SeriesCadenceSeconds: 0.5}
		if next()%2 == 1 {
			meta.Cells = 1 + next()%4
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "query.wtl")
		w, err := Create(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < meta.Wearers; i++ {
			rec := Record{Wearer: i, Events: uint64(next()), Cell: -1, Nodes: make([]NodeRecord, next()%4)}
			if meta.Cells > 0 {
				rec.Cell = next() % meta.Cells
			}
			for tick := int64(1); tick <= int64(next()%8); tick++ {
				for n := range rec.Nodes {
					p := SeriesPoint{Node: n, TimeMS: 500 * tick, Charge: 1 - float64(next())/512,
						QueueDepth: next()%9 - 2, LinkPER: float64(next()) / 255, CollisionRate: float64(next()) / 1024}
					if next()%4 == 0 { // a window with no transmission attempts
						p.LinkPER, p.CollisionRate = math.NaN(), math.NaN()
					}
					rec.Series = append(rec.Series, p)
				}
			}
			if err := w.Consume(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		q := Query{Metric: []string{"charge", "queue", "per", "collisions"}[next()%4],
			FromMS: int64(next()%10)*250 - 250, Cell: next()%(meta.Cells+2) - 1, Node: next()%5 - 1}
		if to := next() % 12; to >= 2 {
			q.ToMS = q.FromMS + int64(to)*250
		} else {
			q.ToMS = -int64(to) // open above: 0 or negative
		}

		want, err := refQuery(path, q)
		if err != nil {
			t.Fatal(err)
		}
		answer := func(path, via string) {
			t.Helper()
			got, err := QueryStore(path, q)
			if err != nil {
				t.Fatalf("%s: %v", via, err)
			}
			if g, w := statsBits(got), statsBits(want); g != w {
				t.Fatalf("%s: query %+v answered\n  %s\nreference fold\n  %s", via, q, g, w)
			}
		}
		answer(path, "index")
		_, committed, _, err := Committed(path)
		if err != nil {
			t.Fatal(err)
		}
		store, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sidecar, err := os.ReadFile(CheckpointPath(path))
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Join(dir, "cut.wtl")
		if err := os.WriteFile(cut, store[:committed], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CheckpointPath(cut), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		answer(cut, "index frame cut")
		bare := filepath.Join(dir, "bare.wtl")
		if err := os.WriteFile(bare, store, 0o644); err != nil {
			t.Fatal(err)
		}
		answer(bare, "sidecar removed")

		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		entries, ok := r.loadIndex()
		r.Close()
		if !ok {
			t.Fatal("a closed series store has no usable index")
		}
		var admitted []indexEntry
		for _, e := range entries {
			if q.admits(&e) {
				admitted = append(admitted, e)
			}
		}
		if len(admitted) == 0 {
			return
		}
		e := admitted[next()%len(admitted)]
		end := committed
		if k := slices.IndexFunc(entries, func(x indexEntry) bool { return x.recOffset > e.recOffset }); k >= 0 {
			end = entries[k].recOffset
		}
		store[e.recOffset+int64(next())*int64(next()+1)%(end-e.recOffset)] ^= byte(1 + next()%255)
		if err := os.WriteFile(path, store, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := refQuery(path, q); err == nil {
			t.Fatal("the full-decode walk read a damaged committed block")
		}
		if _, err := QueryStore(path, q); err == nil {
			t.Fatalf("query %+v read a damaged admitted block", q)
		}
	})
}

// TestQueryStoreAggregates checks every metric, filter and aggregation
// against the brute-force reference on a multi-block store.
func TestQueryStoreAggregates(t *testing.T) {
	const n, blockSize = 37, 8
	path := writeSeriesStore(t, n, blockSize)
	for _, c := range []struct {
		name string
		q    Query
	}{
		{"all-charge", Query{Metric: "charge", Cell: -1, Node: -1}},
		{"all-queue", Query{Metric: "queue", Cell: -1, Node: -1}},
		{"per-with-gaps", Query{Metric: "per", Cell: -1, Node: -1}},
		{"collisions", Query{Metric: "collisions", Cell: -1, Node: -1}},
		{"time-slice", Query{Metric: "charge", FromMS: 1000, ToMS: 2000, Cell: -1, Node: -1}},
		{"from-only", Query{Metric: "queue", FromMS: 2500, Cell: -1, Node: -1}},
		{"one-cell", Query{Metric: "per", Cell: 3, Node: -1}},
		{"one-node", Query{Metric: "charge", Cell: -1, Node: 2}},
		{"cell-node-time", Query{Metric: "collisions", FromMS: 1500, ToMS: 2500, Cell: 1, Node: 0}},
		{"empty-cell", Query{Metric: "charge", Cell: 999, Node: -1}},
	} {
		q := c.q
		want := refStats(n, q)
		got, err := QueryStore(path, q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Points != want.Points || got.Gaps != want.Gaps ||
			got.Sum != want.Sum || got.Min != want.Min || got.Max != want.Max {
			t.Errorf("%s: got {pts=%d gaps=%d sum=%v min=%v max=%v}, want {pts=%d gaps=%d sum=%v min=%v max=%v}",
				c.name, got.Points, got.Gaps, got.Sum, got.Min, got.Max,
				want.Points, want.Gaps, want.Sum, want.Min, want.Max)
		}
		if got.Mean() != want.Mean() {
			t.Errorf("%s: mean %v, want %v", c.name, got.Mean(), want.Mean())
		}
		for _, pct := range []float64{0, 10, 50, 90, 99, 100} {
			if g, w := got.Percentile(pct), want.Percentile(pct); g != w {
				t.Errorf("%s: p%g = %v, want %v", c.name, pct, g, w)
			}
		}
	}
}

// TestQueryStoreGapPolicy pins that NaN rate samples surface as Gaps and
// never poison an aggregate.
func TestQueryStoreGapPolicy(t *testing.T) {
	path := writeSeriesStore(t, 37, 8)
	stats, err := QueryStore(path, Query{Metric: "per", Cell: -1, Node: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gaps == 0 {
		t.Fatal("test data carries NaN windows but the query reported none")
	}
	for name, v := range map[string]float64{
		"sum": stats.Sum, "mean": stats.Mean(), "min": stats.Min,
		"max": stats.Max, "p50": stats.Percentile(50),
	} {
		if math.IsNaN(v) {
			t.Errorf("%s poisoned by NaN gap samples", name)
		}
	}
}

// TestQueryIndexMatchesScan runs identical queries through the index
// fast path and — after deleting the sidecar that locates the index —
// the sequential fallback, and demands bit-identical statistics.
func TestQueryIndexMatchesScan(t *testing.T) {
	const n = 37
	path := writeSeriesStore(t, n, 8)
	queries := []Query{
		{Metric: "charge", Cell: -1, Node: -1},
		{Metric: "per", FromMS: 1000, ToMS: 2000, Cell: -1, Node: -1},
		{Metric: "queue", Cell: 2, Node: 1},
	}
	indexed := make([]*SeriesStats, len(queries))
	for i, q := range queries {
		var err error
		if indexed[i], err = QueryStore(path, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(CheckpointPath(path)); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		scanned, err := QueryStore(path, q)
		if err != nil {
			t.Fatal(err)
		}
		ix := indexed[i]
		if scanned.Points != ix.Points || scanned.Gaps != ix.Gaps ||
			scanned.Sum != ix.Sum || scanned.Min != ix.Min || scanned.Max != ix.Max ||
			scanned.Percentile(90) != ix.Percentile(90) {
			t.Errorf("query %d: scan fallback diverged from index path", i)
		}
	}
}

// TestQueryIndexPruning pins the admits predicate on every pruning axis:
// queries whose selection cannot intersect a block must skip it, queries
// that could must not — the index path still matches the reference.
func TestQueryIndexPruning(t *testing.T) {
	const n = 37
	path := writeSeriesStore(t, n, 8)
	for _, c := range []struct {
		name string
		q    Query
	}{
		{"before-all-samples", Query{Metric: "charge", ToMS: 100, Cell: -1, Node: -1}},
		{"after-all-samples", Query{Metric: "charge", FromMS: 1 << 40, Cell: -1, Node: -1}},
		{"node-past-max", Query{Metric: "queue", Cell: -1, Node: 99}},
		{"cell-below-range", Query{Metric: "per", Cell: 0, Node: -1}},
		{"mid-window", Query{Metric: "collisions", FromMS: 1500, ToMS: 1500, Cell: -1, Node: -1}},
	} {
		want := refStats(n, c.q)
		got, err := QueryStore(path, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Points != want.Points || got.Gaps != want.Gaps || got.Sum != want.Sum {
			t.Errorf("%s: got {pts=%d gaps=%d sum=%v}, want {pts=%d gaps=%d sum=%v}",
				c.name, got.Points, got.Gaps, got.Sum, want.Points, want.Gaps, want.Sum)
		}
	}
}

// TestWriterMetaAndFlush: Meta echoes the header and an explicit Flush
// commits a short block that survives reopening.
func TestWriterMetaAndFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flush.wtl")
	meta := seriesMeta(10, 8)
	w, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Meta(); got != meta {
		t.Fatalf("writer meta %+v, want %+v", got, meta)
	}
	for i := 0; i < 3; i++ {
		if err := w.Consume(seriesRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.NextWearer() != 3 || w.Blocks() != 1 {
		t.Fatalf("after flush: next=%d blocks=%d", w.NextWearer(), w.Blocks())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	drained := 0
	for {
		if _, err := r.Next(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		drained++
	}
	if drained != 3 {
		t.Fatalf("flushed store holds %d records, want 3", drained)
	}
}

// TestQueryStoreErrors: unknown metrics and series-off stores fail with
// directed messages instead of empty results.
func TestQueryStoreErrors(t *testing.T) {
	path := writeSeriesStore(t, 10, 8)
	if _, err := QueryStore(path, Query{Metric: "latency", Cell: -1, Node: -1}); err == nil ||
		!strings.Contains(err.Error(), "unknown series metric") {
		t.Errorf("unknown metric: err = %v", err)
	}
	off := writeStore(t, 10, 8) // v3 store, cadence 0
	if _, err := QueryStore(off, Query{Metric: "charge", Cell: -1, Node: -1}); err == nil ||
		!strings.Contains(err.Error(), "no series") {
		t.Errorf("series-off store: err = %v", err)
	}
}

// TestQueryHeaderOnlyStore: a series-enabled store with zero committed
// blocks queries cleanly to an empty result.
func TestQueryHeaderOnlyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.wtl")
	w, err := Create(path, seriesMeta(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := QueryStore(path, Query{Metric: "charge", Cell: -1, Node: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Points != 0 || stats.Gaps != 0 || stats.Sum != 0 ||
		stats.Mean() != 0 || stats.Percentile(50) != 0 {
		t.Fatalf("header-only store produced non-empty stats: %+v", stats)
	}
}

// TestSeriesStatsPercentileRank pins Percentile's documented rank
// convention — floor(n·pct/100), clamped to [0, n-1] — at the exact
// boundaries where the float rank computation is easiest to get wrong:
// pct=100 computes rank n and must clamp down to the max sample, even
// on the n=1 store where rank 1 of a single value exists only after the
// clamp.
func TestSeriesStatsPercentileRank(t *testing.T) {
	mk := func(vals ...float64) *SeriesStats {
		s := &SeriesStats{}
		for _, v := range vals {
			s.add(v)
		}
		return s
	}
	one := mk(7.5)
	for _, pct := range []float64{0, 50, 99.999, 100} {
		if got := one.Percentile(pct); got != 7.5 {
			t.Errorf("n=1 p%v = %v, want 7.5", pct, got)
		}
	}
	four := mk(40, 10, 30, 20) // unsorted on purpose: Percentile sorts once
	for _, c := range []struct{ pct, want float64 }{
		{0, 10},   // rank 0: the minimum
		{24, 10},  // floor(4·24/100) = 0 — still the minimum
		{25, 20},  // the rank lands exactly on 1
		{50, 30},  // upper median, rank 2 — floor convention, no interpolation
		{75, 40},  // rank 3: p75 of four samples is already the max
		{100, 40}, // rank 4, clamped to 3
	} {
		if got := four.Percentile(c.pct); got != c.want {
			t.Errorf("n=4 p%v = %v, want %v", c.pct, got, c.want)
		}
	}
	var empty SeriesStats
	if got := empty.Percentile(100); got != 0 {
		t.Errorf("empty stats p100 = %v, want 0", got)
	}
}
