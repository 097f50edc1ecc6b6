package telemetry

import (
	"fmt"

	"wiban/internal/compress"
)

// Series and index frames (FormatV3).
//
// A series frame carries the in-run samples of the record block it is
// paired with — the writer appends the pair in a single write, so a torn
// tail can never leave a committed record block without its series. Its
// body after the kind selector is a nestedBody (codec.go) with no
// per-record columns: the per-record point counts, then the seriesFrame
// point columns flattened in (record, time, node) order. The timestamp
// column is delta-of-delta coded, so fixed-cadence stamps cost ~1 byte.
//
// The index frame is the last frame of a completely written store: an
// entry count, then the indexColumns table over one entry per record
// block — file offsets and the block's time/cell/node ranges — so a
// query can seek straight to the blocks overlapping its predicate. It
// is deliberately written *after* the final checkpoint and never covered
// by one — resume discards and deterministically rewrites it, keeping
// kill/resume stores byte-identical.

// seriesFrame is the series-frame body: no per-record columns, then the
// per-point columns.
var seriesFrame = nestedBody[SeriesPoint]{
	children: []column[SeriesPoint]{
		{codec: deltaCodec, // seriesNodeColumn
			get: func(p *SeriesPoint) int64 { return int64(p.Node) },
			set: func(p *SeriesPoint, v int64) { p.Node = int(v) }},
		{codec: deltaCodec, // seriesQueueColumn
			get: func(p *SeriesPoint) int64 { return int64(p.QueueDepth) },
			set: func(p *SeriesPoint, v int64) { p.QueueDepth = int(v) }},
		{codec: delta2Codec, // seriesTimeColumn
			get: func(p *SeriesPoint) int64 { return p.TimeMS },
			set: func(p *SeriesPoint, v int64) { p.TimeMS = v }},
		{codec: xorCodec, // seriesChargeColumn
			get: func(p *SeriesPoint) int64 { return floatBits(p.Charge) },
			set: func(p *SeriesPoint, v int64) { p.Charge = bitsFloat(v) }},
		{codec: xorCodec, // seriesPERColumn
			get: func(p *SeriesPoint) int64 { return floatBits(p.LinkPER) },
			set: func(p *SeriesPoint, v int64) { p.LinkPER = bitsFloat(v) }},
		{codec: xorCodec, // seriesCollisionsColumn
			get: func(p *SeriesPoint) int64 { return floatBits(p.CollisionRate) },
			set: func(p *SeriesPoint, v int64) { p.CollisionRate = bitsFloat(v) }},
	},
	childrenOf: func(r *Record) *[]SeriesPoint { return &r.Series },
}

// The positions of the point columns in seriesFrame.children, which
// projections select by; every walk keeps seriesTimeColumn for the index
// entry.
const (
	seriesNodeColumn = iota
	seriesQueueColumn
	seriesTimeColumn
	seriesChargeColumn
	seriesPERColumn
	seriesCollisionsColumn
)

// encodeSeriesFrame renders the samples attached to recs (one committed
// block) as a series frame appended to dst, with buf as the encoder's
// scratch.
func encodeSeriesFrame(dst []byte, buf *columnBuf, recs []Record) []byte {
	start := len(dst)
	dst = compress.AppendUvarint(openFrame(dst), kindSeries)
	return closeFrame(seriesFrame.append(dst, buf, recs, FormatV3), start)
}

// indexEntry summarizes one committed record block for query pruning.
type indexEntry struct {
	recOffset   int64 // file offset of the record frame
	serOffset   int64 // file offset of the paired series frame; 0 when the store has no series
	firstWearer int
	records     int
	points      int   // the paired series frame's samples
	minTimeMS   int64 // and their time range (0,0 when pointless)
	maxTimeMS   int64
	minCell     int // cell range of the block's records
	maxCell     int
	maxNodes    int // widest node count in the block — bounds the node-class label space
}

// addRecord widens the entry by the block's next record: its cell and
// node count.
func (e *indexEntry) addRecord(cell, nodes int) {
	if e.records == 0 || cell < e.minCell {
		e.minCell = cell
	}
	if e.records == 0 || cell > e.maxCell {
		e.maxCell = cell
	}
	e.maxNodes = max(e.maxNodes, nodes)
	e.records++
}

// addPoint widens the entry by one sample taken at t.
func (e *indexEntry) addPoint(t int64) {
	if e.points == 0 || t < e.minTimeMS {
		e.minTimeMS = t
	}
	if e.points == 0 || t > e.maxTimeMS {
		e.maxTimeMS = t
	}
	e.points++
}

// entryFor summarizes a block the writer commits from its records.
func entryFor(recOffset, serOffset int64, recs []Record) indexEntry {
	e := indexEntry{recOffset: recOffset, serOffset: serOffset, firstWearer: recs[0].Wearer}
	for i := range recs {
		r := &recs[i]
		e.addRecord(r.Cell, len(r.Nodes))
		for j := range r.Series {
			e.addPoint(r.Series[j].TimeMS)
		}
	}
	return e
}

// indexColumns is the index-frame body after the entry count.
var indexColumns = []column[indexEntry]{
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return e.recOffset },
		set: func(e *indexEntry, v int64) { e.recOffset = v }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return e.serOffset },
		set: func(e *indexEntry, v int64) { e.serOffset = v }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return int64(e.firstWearer) },
		set: func(e *indexEntry, v int64) { e.firstWearer = int(v) }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return int64(e.records) },
		set: func(e *indexEntry, v int64) { e.records = int(v) }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return int64(e.points) },
		set: func(e *indexEntry, v int64) { e.points = int(v) }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return e.minTimeMS },
		set: func(e *indexEntry, v int64) { e.minTimeMS = v }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return e.maxTimeMS },
		set: func(e *indexEntry, v int64) { e.maxTimeMS = v }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return int64(e.minCell) },
		set: func(e *indexEntry, v int64) { e.minCell = int(v) }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return int64(e.maxCell) },
		set: func(e *indexEntry, v int64) { e.maxCell = int(v) }},
	{codec: deltaCodec,
		get: func(e *indexEntry) int64 { return int64(e.maxNodes) },
		set: func(e *indexEntry, v int64) { e.maxNodes = int(v) }},
}

// encodeIndexFrame renders the per-block index as a frame.
func encodeIndexFrame(entries []indexEntry) []byte {
	dst := compress.AppendUvarint(openFrame(nil), kindIndex)
	dst = compress.AppendUvarint(dst, uint64(len(entries)))
	dst = appendColumns(dst, &columnBuf{}, len(entries), indexColumns, FormatV3, func(c *column[indexEntry], vals []int64) {
		for i := range entries {
			vals[i] = c.get(&entries[i])
		}
	})
	return closeFrame(dst, 0)
}

// decodeIndexBody inverts encodeIndexFrame on a verified body (kind
// already stripped).
func decodeIndexBody(body []byte) ([]indexEntry, error) {
	n, pos := compress.DecodeUvarint(body)
	if pos == 0 {
		return nil, fmt.Errorf("%w: index header", ErrCorrupt)
	}
	count := int(n)
	if count < 0 || count > maxBlockPayload || minColumnsLen(indexColumns, count, FormatV3) > len(body)-pos {
		return nil, fmt.Errorf("%w: implausible index entry count %d", ErrCorrupt, count)
	}
	p := projection{keep: allColumns}
	used, err := decodeColumns(body[pos:], count, indexColumns, FormatV3, &p)
	if err != nil {
		return nil, err
	}
	if pos+used != len(body) {
		return nil, fmt.Errorf("%w: %d trailing index bytes", ErrCorrupt, len(body)-pos-used)
	}
	entries := make([]indexEntry, count)
	setColumns(entries, indexColumns, FormatV3, &p)
	return entries, nil
}
