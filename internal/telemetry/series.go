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
		{codec: delta2Codec, // seriesTimeColumn
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

// seriesTimeColumn is the position of the timestamp column in
// seriesFrame.children: a check-only decode reads a frame's time range
// off it.
const seriesTimeColumn = 2

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
	_, err := seriesFrame.decode(body, recs, FormatV3, nil)
	return err
}

// checkSeriesBody checks a series body exactly as strictly as
// decodeSeriesBody but builds no points: it widens span by each point's
// timestamp instead, which is all a block's index entry keeps of them.
func checkSeriesBody(body []byte, recs []Record, span *timeSpan) error {
	_, err := seriesFrame.decode(body, recs, FormatV3, &columnTap{col: seriesTimeColumn, seen: func(times []int64) {
		for _, t := range times {
			span.add(t)
		}
	}})
	return err
}

// timeSpan counts a series frame's points and their sample-time range
// (0,0 when pointless).
type timeSpan struct {
	points    int
	minTimeMS int64
	maxTimeMS int64
}

// add widens the span by one point sampled at t.
func (s *timeSpan) add(t int64) {
	if s.points == 0 || t < s.minTimeMS {
		s.minTimeMS = t
	}
	if s.points == 0 || t > s.maxTimeMS {
		s.maxTimeMS = t
	}
	s.points++
}

// indexEntry summarizes one committed record block for query pruning.
type indexEntry struct {
	recOffset   int64 // file offset of the record frame
	serOffset   int64 // file offset of the paired series frame; 0 when the store has no series
	firstWearer int
	records     int
	timeSpan        // the paired series frame's points
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
			e.add(r.Series[j].TimeMS)
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
	used, err := decodeColumns(body[pos:], &columnBuf{}, count, entries, indexColumns, FormatV3, nil)
	if err != nil {
		return nil, err
	}
	if pos+used != len(body) {
		return nil, fmt.Errorf("%w: %d trailing index bytes", ErrCorrupt, len(body)-pos-used)
	}
	return entries, nil
}

// readSeriesFrameAt reads the series frame at pos, which must pair with
// recs, and appends it to dst (see readFrame). With span nil it attaches
// the frame's points to recs; otherwise it only checks them
// (checkSeriesBody) and widens span.
func readSeriesFrameAt(dst []byte, f *os.File, pos, limit int64, recs []Record, span *timeSpan) ([]byte, error) {
	out, err := readFrame(dst, f, pos, limit)
	if err != nil {
		return nil, err
	}
	kind, body, err := splitKind(framePayload(out[len(dst):]), FormatV3)
	if err != nil {
		return nil, err
	}
	if kind != kindSeries {
		return nil, fmt.Errorf("%w: frame kind %d where a series frame was expected", ErrCorrupt, kind)
	}
	if span == nil {
		err = decodeSeriesBody(body, recs)
	} else {
		err = checkSeriesBody(body, recs, span)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
