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

// fitSlice resizes s to n elements, allocating only to grow it.
func fitSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decode decodes one varint column from src: the integer codecs fill
// ints, xorCodec fills floats.
func (c codec) decode(src []byte, ints []int64, floats []float64) (int, error) {
	switch c {
	case deltaCodec:
		return compress.DecodeDeltaInts(src, ints)
	case delta2Codec:
		return compress.DecodeDelta2Ints(src, ints)
	default:
		return compress.DecodeXorFloats(src, floats)
	}
}

// appendColumns encodes the columns of cols present in version over n
// rows and appends them to dst. gather fills vals (len n) with a column's
// wire values in row order.
func appendColumns[R any](dst []byte, buf *columnBuf, n int, cols []column[R], version int,
	gather func(c *column[R], vals []int64)) []byte {
	buf.fit(n)
	for i := range cols {
		c := &cols[i]
		if c.since > version {
			continue
		}
		gather(c, buf.vals)
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

// projection is what one decode of a column table keeps: the columns
// keep selects (bit i for column i) decode into ints[i], floats[i]
// (xorCodec) or flags[i] (flagCodec), reused from decode to decode.
// Every other column is checked exactly as strictly, not decoded:
// SkipUvarints accepts exactly the streams the decoders accept, and a
// flag column is checked by its length.
type projection struct {
	keep   uint64
	ints   [][]int64
	floats [][]float64
	flags  [][]bool
}

// allColumns keeps every column of a table.
const allColumns = ^uint64(0)

// fit sizes column i's buffer of codec c, in a table of ncols, to n
// values.
func (p *projection) fit(i, ncols, n int, c codec) {
	if len(p.ints) < ncols {
		p.ints, p.floats, p.flags = make([][]int64, ncols), make([][]float64, ncols), make([][]bool, ncols)
	}
	switch c {
	case xorCodec:
		p.floats[i] = fitSlice(p.floats[i], n)
	case flagCodec:
		p.flags[i] = fitSlice(p.flags[i], n)
	default:
		p.ints[i] = fitSlice(p.ints[i], n)
	}
}

// decodeColumns inverts appendColumns for n rows into p, decoding the
// columns p keeps and checking the rest, and returns the bytes consumed.
func decodeColumns[R any](src []byte, n int, cols []column[R], version int, p *projection) (int, error) {
	pos := 0
	for ci, c := range cols {
		if c.since > version {
			continue
		}
		kept := p.keep&(1<<ci) != 0
		if kept {
			p.fit(ci, len(cols), n, c.codec)
		}
		var used int
		var err error
		switch {
		case c.codec == flagCodec:
			used = compress.PackedBoolLen(n)
			if pos+used > len(src) {
				return 0, fmt.Errorf("%w: truncated flag column %d", ErrCorrupt, ci)
			}
			if kept {
				err = compress.UnpackBools(src[pos:pos+used], p.flags[ci])
			}
		case kept:
			used, err = c.codec.decode(src[pos:], p.ints[ci], p.floats[ci])
		default:
			used, err = compress.SkipUvarints(src[pos:], n)
		}
		if err != nil {
			return 0, fmt.Errorf("%w: column %d: %v", ErrCorrupt, ci, err)
		}
		pos += used
	}
	return pos, nil
}

// setColumns is the row step: it sets every column p kept into rows.
func setColumns[R any](rows []R, cols []column[R], version int, p *projection) {
	for ci := range cols {
		c := &cols[ci]
		if c.since > version || p.keep&(1<<ci) == 0 {
			continue
		}
		switch c.codec {
		case xorCodec:
			for i, f := range p.floats[ci] {
				c.set(&rows[i], floatBits(f))
			}
		case flagCodec:
			for i, b := range p.flags[ci] {
				c.set(&rows[i], flagBit(b))
			}
		default:
			for i, v := range p.ints[ci] {
				c.set(&rows[i], v)
			}
		}
	}
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
// dst, using buf as scratch.
func (b *nestedBody[C]) append(dst []byte, buf *columnBuf, recs []Record, version int) []byte {
	total := 0
	for i := range recs {
		total += len(*b.childrenOf(&recs[i]))
	}
	buf.fit(max(len(recs), total)) // the longest column, so later fits only reslice
	buf.fit(len(recs))
	for i := range recs {
		buf.vals[i] = int64(len(*b.childrenOf(&recs[i])))
	}
	dst = compress.AppendUvarint(dst, uint64(recs[0].Wearer))
	dst = compress.AppendUvarint(dst, uint64(len(recs)))
	dst = compress.AppendUvarint(dst, uint64(total))
	dst = compress.AppendDeltaInts(dst, buf.vals)
	dst = appendColumns(dst, buf, len(recs), b.records, version, func(c *column[Record], vals []int64) {
		for i := range recs {
			vals[i] = c.get(&recs[i])
		}
	})
	return appendColumns(dst, buf, total, b.children, version, func(c *column[C], vals []int64) {
		k := 0
		for i := range recs {
			kids := *b.childrenOf(&recs[i])
			for j := range kids {
				vals[k] = c.get(&kids[j])
				k++
			}
		}
	})
}

// bodyView is what a decode of a nested body keeps: the header's first
// wearer and the per-record child counts, which every decode reads in
// full, and the values its record and child projections keep. A caller
// that passes the same view from body to body reuses its buffers.
type bodyView struct {
	first    int
	counts   []int64
	total    int
	records  projection
	children projection
}

// readHead parses the header and child counts at the start of src into
// v and returns the bytes they took. When pairN >= 0 the body must cover
// exactly the pairN wearers from pairFirst — a series frame pairing with
// its record block. A header claiming more rows than the payload could
// hold is refused with the minColumnsLen bound before anything sized by
// it is allocated.
func (b *nestedBody[C]) readHead(src []byte, version, pairFirst, pairN int, v *bodyView) (int, error) {
	var header [3]uint64
	pos := 0
	for i := range header {
		val, n := compress.DecodeUvarint(src[pos:])
		if n == 0 {
			return 0, fmt.Errorf("%w: body header", ErrCorrupt)
		}
		header[i] = val
		pos += n
	}
	first, count, total := int(header[0]), int(header[1]), int(header[2])
	if count <= 0 || count > maxBlockPayload || total < 0 || total > maxBlockPayload {
		return 0, fmt.Errorf("%w: implausible body header (%d records, %d children)", ErrCorrupt, count, total)
	}
	if pairN >= 0 && (count != pairN || first != pairFirst) {
		return 0, fmt.Errorf("%w: frame covers wearers [%d,+%d), paired block holds [%d,+%d)",
			ErrCorrupt, first, count, pairFirst, pairN)
	}
	need := count + minColumnsLen(b.records, count, version) + minColumnsLen(b.children, total, version)
	if need > len(src)-pos {
		return 0, fmt.Errorf("%w: body header claims %d records, %d children in %d payload bytes",
			ErrCorrupt, count, total, len(src))
	}
	v.counts = fitSlice(v.counts, count)
	used, err := compress.DecodeDeltaInts(src[pos:], v.counts)
	if err != nil {
		return 0, fmt.Errorf("%w: child counts: %v", ErrCorrupt, err)
	}
	pos += used
	sum := 0
	for _, c := range v.counts {
		if c < 0 || c > int64(total) {
			return 0, fmt.Errorf("%w: child count %d outside [0,%d]", ErrCorrupt, c, total)
		}
		sum += int(c)
	}
	if sum != total {
		return 0, fmt.Errorf("%w: child counts sum %d, header says %d", ErrCorrupt, sum, total)
	}
	v.first, v.total = first, total
	return pos, nil
}

// project is the one decode of a body append wrote: it checks the
// header, pairing (pairN as in readHead), child counts, every column and
// that no bytes trail, and leaves in v the header, the child counts and
// the columns v's projections keep.
func (b *nestedBody[C]) project(src []byte, version, pairFirst, pairN int, v *bodyView) error {
	pos, err := b.readHead(src, version, pairFirst, pairN, v)
	if err != nil {
		return err
	}
	used, err := decodeColumns(src[pos:], len(v.counts), b.records, version, &v.records)
	if err != nil {
		return err
	}
	pos += used
	if used, err = decodeColumns(src[pos:], v.total, b.children, version, &v.children); err != nil {
		return err
	}
	pos += used
	if pos != len(src) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(src)-pos)
	}
	return nil
}

// rows builds rows from the columns a project into v kept: the records
// the header names when recs is nil (cell −1 unless a cell column sets
// it, as v0 stores have none), then the children, attached to recs.
func (b *nestedBody[C]) rows(v *bodyView, recs []Record, version int) []Record {
	if recs == nil {
		recs = make([]Record, len(v.counts))
		for i := range recs {
			recs[i] = Record{Wearer: v.first + i, Cell: -1}
		}
	}
	setColumns(recs, b.records, version, &v.records)
	kids := make([]C, v.total)
	setColumns(kids, b.children, version, &v.children)
	off := 0
	for i := range recs {
		nc := int(v.counts[i])
		*b.childrenOf(&recs[i]) = kids[off : off+nc : off+nc]
		off += nc
	}
	return recs
}
