package telemetry

// Column tables: every frame kind writes its layout down once, as an
// ordered list of columns over one row type, and one encoder and one
// decoder walk that list. The wire codecs themselves live in
// wiban/internal/compress.

import (
	"fmt"
	"math"

	"wiban/internal/compress"
)

// codec is how one column's values travel.
type codec int

const (
	deltaCodec  codec = iota // zigzag varint of consecutive differences
	delta2Codec              // zigzag varint of delta-of-delta (fixed-cadence timestamps)
	xorCodec                 // varint of each float's bits XORed with the previous value's
	flagCodec                // one bit per value, MSB first, ⌈n/8⌉ bytes
)

// column is one column of a frame over rows of type R: its codec, the
// first format version that carries it, and the accessors that move a
// row's value to and from its int64 wire form — floats travel as their
// IEEE-754 bits, flags as 0/1.
type column[R any] struct {
	codec codec
	since int
	get   func(*R) int64
	set   func(*R, int64)
}

// floatBits and bitsFloat are the float column accessors' conversions.
func floatBits(f float64) int64 { return int64(math.Float64bits(f)) }
func bitsFloat(v int64) float64 { return math.Float64frombits(uint64(v)) }

// flagBit is the flag column accessors' conversion.
func flagBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// minColumnsLen is the fewest bytes cols can encode n rows in under
// version: one byte per varint element and ⌈n/8⌉ per flag column. A
// header claiming more rows than the payload could hold is forged, and
// the decoders reject it with this bound before allocating anything
// sized by it.
func minColumnsLen[R any](cols []column[R], n, version int) int {
	need := 0
	for _, c := range cols {
		switch {
		case c.since > version:
		case c.codec == flagCodec:
			need += compress.PackedBoolLen(n)
		default:
			need += n
		}
	}
	return need
}

// columnBuf carries one column's values between the row accessors and
// the wire codecs, in the typed slices the codecs take. One buffer,
// sized once for a frame's longest column, serves every column of it.
type columnBuf struct {
	vals   []int64
	floats []float64
	flags  []bool
}

// fit resizes the buffer to n values, allocating only to grow it.
func (b *columnBuf) fit(n int) {
	if cap(b.vals) < n {
		b.vals, b.floats, b.flags = make([]int64, n), make([]float64, n), make([]bool, n)
	}
	b.vals, b.floats, b.flags = b.vals[:n], b.floats[:n], b.flags[:n]
}

// appendColumns encodes the columns of cols present in version over the
// rows of runs, concatenated in order, and appends them to dst.
func appendColumns[R any](dst []byte, buf *columnBuf, runs [][]R, cols []column[R], version int) []byte {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	buf.fit(n)
	for _, c := range cols {
		if c.since > version {
			continue
		}
		k := 0
		for _, run := range runs {
			for i := range run {
				buf.vals[k] = c.get(&run[i])
				k++
			}
		}
		switch c.codec {
		case deltaCodec:
			dst = compress.AppendDeltaInts(dst, buf.vals)
		case delta2Codec:
			dst = compress.AppendDelta2Ints(dst, buf.vals)
		case xorCodec:
			for i, v := range buf.vals {
				buf.floats[i] = bitsFloat(v)
			}
			dst = compress.AppendXorFloats(dst, buf.floats)
		case flagCodec:
			for i, v := range buf.vals {
				buf.flags[i] = v != 0
			}
			dst = compress.PackBools(dst, buf.flags)
		}
	}
	return dst
}

// columnTap asks a check-only decode for the values of one integer
// column.
type columnTap struct {
	col  int                // index into the column table
	seen func(vals []int64) // valid until the decode reuses its buffer
}

// decodeColumns inverts appendColumns for n rows, setting each decoded
// value into rows (len n), and returns the bytes consumed. With tap
// non-nil it builds no rows (rows may be nil) but checks every column as
// strictly: it skips over each varint column's bytes — SkipUvarints
// accepts exactly the streams the decoders accept — except tap.col's,
// whose values it decodes for tap.seen.
func decodeColumns[R any](src []byte, buf *columnBuf, n int, rows []R, cols []column[R], version int,
	tap *columnTap) (int, error) {
	buf.fit(n)
	pos := 0
	for ci, c := range cols {
		if c.since > version {
			continue
		}
		var used int
		var err error
		switch {
		case c.codec == flagCodec:
			used = compress.PackedBoolLen(n)
			if pos+used > len(src) {
				return 0, fmt.Errorf("%w: truncated flag column %d", ErrCorrupt, ci)
			}
			if tap == nil {
				err = compress.UnpackBools(src[pos:pos+used], buf.flags)
			}
		case tap != nil && ci != tap.col:
			used, err = compress.SkipUvarints(src[pos:], n)
		case c.codec == deltaCodec:
			used, err = compress.DecodeDeltaInts(src[pos:], buf.vals)
		case c.codec == delta2Codec:
			used, err = compress.DecodeDelta2Ints(src[pos:], buf.vals)
		case c.codec == xorCodec:
			used, err = compress.DecodeXorFloats(src[pos:], buf.floats)
		}
		if err != nil {
			return 0, fmt.Errorf("%w: column %d: %v", ErrCorrupt, ci, err)
		}
		pos += used
		if tap != nil {
			if ci == tap.col {
				tap.seen(buf.vals)
			}
			continue
		}
		switch c.codec {
		case xorCodec:
			for i, f := range buf.floats {
				c.set(&rows[i], floatBits(f))
			}
		case flagCodec:
			for i, b := range buf.flags {
				c.set(&rows[i], flagBit(b))
			}
		default:
			for i, v := range buf.vals {
				c.set(&rows[i], v)
			}
		}
	}
	return pos, nil
}

// nestedBody is the layout of a frame whose wearer records each own a run
// of child rows — a record block's nodes, or a series frame's samples:
//
//	uvarint firstWearer | uvarint records | uvarint totalChildren
//	per-record child counts (zigzag-delta varint)
//	the records' columns, then the children's columns flattened in
//	record order
type nestedBody[C any] struct {
	records    []column[Record]
	children   []column[C]
	childrenOf func(*Record) *[]C
}

// append encodes recs, which must be non-empty, and appends the body to
// dst.
func (b *nestedBody[C]) append(dst []byte, recs []Record, version int) []byte {
	runs := make([][]C, len(recs))
	total := 0
	for i := range recs {
		runs[i] = *b.childrenOf(&recs[i])
		total += len(runs[i])
	}
	var buf columnBuf
	buf.fit(max(len(recs), total)) // the longest column, so later fits only reslice
	buf.fit(len(recs))
	for i := range runs {
		buf.vals[i] = int64(len(runs[i]))
	}
	dst = compress.AppendUvarint(dst, uint64(recs[0].Wearer))
	dst = compress.AppendUvarint(dst, uint64(len(recs)))
	dst = compress.AppendUvarint(dst, uint64(total))
	dst = compress.AppendDeltaInts(dst, buf.vals)
	dst = appendColumns(dst, &buf, [][]Record{recs}, b.records, version)
	return appendColumns(dst, &buf, runs, b.children, version)
}

// decode inverts append on a verified body. With recs nil it builds the
// records the header names (a record block: wearers numbered from the
// header, cell −1 until a cell column says otherwise, since v0 stores
// predate spectrum coupling); otherwise recs must be exactly the records
// the header names (a series frame attaching to its paired block). The
// children attach to the records only once the whole body decodes. With
// tap non-nil the children are checked as strictly but never built, and
// tap sees one of their columns (decodeColumns).
func (b *nestedBody[C]) decode(src []byte, recs []Record, version int, tap *columnTap) ([]Record, error) {
	var header [3]uint64
	pos := 0
	for i := range header {
		v, n := compress.DecodeUvarint(src[pos:])
		if n == 0 {
			return nil, fmt.Errorf("%w: body header", ErrCorrupt)
		}
		header[i] = v
		pos += n
	}
	first, count, total := int(header[0]), int(header[1]), int(header[2])
	if count <= 0 || count > maxBlockPayload || total < 0 || total > maxBlockPayload {
		return nil, fmt.Errorf("%w: implausible body header (%d records, %d children)", ErrCorrupt, count, total)
	}
	if recs != nil && (count != len(recs) || first != recs[0].Wearer) {
		return nil, fmt.Errorf("%w: frame covers wearers [%d,+%d), paired block holds [%d,+%d)",
			ErrCorrupt, first, count, firstWearerOf(recs), len(recs))
	}
	need := count + minColumnsLen(b.records, count, version) + minColumnsLen(b.children, total, version)
	if need > len(src)-pos {
		return nil, fmt.Errorf("%w: body header claims %d records, %d children in %d payload bytes",
			ErrCorrupt, count, total, len(src))
	}

	counts := make([]int64, count)
	used, err := compress.DecodeDeltaInts(src[pos:], counts)
	if err != nil {
		return nil, fmt.Errorf("%w: child counts: %v", ErrCorrupt, err)
	}
	pos += used
	sum := 0
	for _, c := range counts {
		if c < 0 || c > int64(total) {
			return nil, fmt.Errorf("%w: child count %d outside [0,%d]", ErrCorrupt, c, total)
		}
		sum += int(c)
	}
	if sum != total {
		return nil, fmt.Errorf("%w: child counts sum %d, header says %d", ErrCorrupt, sum, total)
	}
	if recs == nil {
		recs = make([]Record, count)
		for i := range recs {
			recs[i] = Record{Wearer: first + i, Cell: -1}
		}
	}
	var buf columnBuf
	buf.fit(max(count, total)) // the longest column, so later fits only reslice
	used, err = decodeColumns(src[pos:], &buf, count, recs, b.records, version, nil)
	if err != nil {
		return nil, err
	}
	pos += used
	var kids []C
	if tap == nil {
		kids = make([]C, total)
	}
	if used, err = decodeColumns(src[pos:], &buf, total, kids, b.children, version, tap); err != nil {
		return nil, err
	}
	pos += used
	if pos != len(src) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(src)-pos)
	}
	if tap != nil {
		return recs, nil
	}
	off := 0
	for i := range recs {
		nc := int(counts[i])
		*b.childrenOf(&recs[i]) = kids[off : off+nc : off+nc]
		off += nc
	}
	return recs, nil
}

// firstWearerOf is a nil-safe accessor for error messages.
func firstWearerOf(recs []Record) int {
	if len(recs) == 0 {
		return -1
	}
	return recs[0].Wearer
}
