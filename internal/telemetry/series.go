package telemetry

import (
	"fmt"
	"os"

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
		{codec: deltaCodec,
			get: func(p *SeriesPoint) int64 { return int64(p.Node) },
			set: func(p *SeriesPoint, v int64) { p.Node = int(v) }},
		{codec: deltaCodec,
			get: func(p *SeriesPoint) int64 { return int64(p.QueueDepth) },
			set: func(p *SeriesPoint, v int64) { p.QueueDepth = int(v) }},
		{codec: delta2Codec,
			get: func(p *SeriesPoint) int64 { return p.TimeMS },
			set: func(p *SeriesPoint, v int64) { p.TimeMS = v }},
		{codec: xorCodec,
			get: func(p *SeriesPoint) int64 { return floatBits(p.Charge) },
			set: func(p *SeriesPoint, v int64) { p.Charge = bitsFloat(v) }},
		{codec: xorCodec,
			get: func(p *SeriesPoint) int64 { return floatBits(p.LinkPER) },
			set: func(p *SeriesPoint, v int64) { p.LinkPER = bitsFloat(v) }},
		{codec: xorCodec,
			get: func(p *SeriesPoint) int64 { return floatBits(p.CollisionRate) },
			set: func(p *SeriesPoint, v int64) { p.CollisionRate = bitsFloat(v) }},
	},
	childrenOf: func(r *Record) *[]SeriesPoint { return &r.Series },
}

// encodeSeriesFrame renders the samples attached to recs (one committed
// block) as a framed series payload appended to dst.
func encodeSeriesFrame(dst []byte, recs []Record) []byte {
	payload := compress.AppendUvarint(nil, kindSeries)
	return appendFrame(dst, seriesFrame.append(payload, recs, FormatV3))
}

// decodeSeriesBody inverts encodeSeriesFrame on a verified body (kind
// already stripped) and attaches the points to recs, which must be the
// records of the paired block.
func decodeSeriesBody(body []byte, recs []Record) error {
	_, err := seriesFrame.decode(body, recs, FormatV3)
	return err
}

// indexEntry summarizes one committed record block for query pruning.
type indexEntry struct {
	recOffset   int64 // file offset of the record frame
	serOffset   int64 // file offset of the paired series frame; 0 when the store has no series
	firstWearer int
	records     int
	points      int   // series points in the paired frame
	minTimeMS   int64 // sample-time range of the paired frame (0,0 when pointless)
	maxTimeMS   int64
	minCell     int // cell range of the block's records
	maxCell     int
	maxNodes    int // widest node count in the block — bounds the node-class label space
}

// entryFor summarizes a committed block from its decoded records.
func entryFor(recOffset, serOffset int64, recs []Record) indexEntry {
	e := indexEntry{
		recOffset:   recOffset,
		serOffset:   serOffset,
		firstWearer: recs[0].Wearer,
		records:     len(recs),
		minCell:     recs[0].Cell,
		maxCell:     recs[0].Cell,
	}
	for i := range recs {
		r := &recs[i]
		if r.Cell < e.minCell {
			e.minCell = r.Cell
		}
		if r.Cell > e.maxCell {
			e.maxCell = r.Cell
		}
		if len(r.Nodes) > e.maxNodes {
			e.maxNodes = len(r.Nodes)
		}
		for j := range r.Series {
			t := r.Series[j].TimeMS
			if e.points == 0 || t < e.minTimeMS {
				e.minTimeMS = t
			}
			if e.points == 0 || t > e.maxTimeMS {
				e.maxTimeMS = t
			}
			e.points++
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

// encodeIndexFrame renders the per-block index as a framed payload.
func encodeIndexFrame(entries []indexEntry) []byte {
	payload := compress.AppendUvarint(nil, kindIndex)
	payload = compress.AppendUvarint(payload, uint64(len(entries)))
	return appendFrame(nil, appendColumns(payload, &columnBuf{}, [][]indexEntry{entries}, indexColumns, FormatV3))
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
	entries := make([]indexEntry, count)
	used, err := decodeColumns(body[pos:], &columnBuf{}, entries, indexColumns, FormatV3)
	if err != nil {
		return nil, err
	}
	if pos+used != len(body) {
		return nil, fmt.Errorf("%w: %d trailing index bytes", ErrCorrupt, len(body)-pos-used)
	}
	return entries, nil
}

// readSeriesFrameAt reads the series frame at pos and attaches its points
// to recs, returning the offset past the frame.
func readSeriesFrameAt(f *os.File, pos, limit int64, recs []Record) (int64, error) {
	payload, end, err := readFramePayload(f, pos, limit)
	if err != nil {
		return 0, err
	}
	kind, body, err := splitKind(payload, FormatV3)
	if err != nil {
		return 0, err
	}
	if kind != kindSeries {
		return 0, fmt.Errorf("%w: frame kind %d where a series frame was expected", ErrCorrupt, kind)
	}
	if err := decodeSeriesBody(body, recs); err != nil {
		return 0, err
	}
	return end, nil
}
