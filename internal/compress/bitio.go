// Package compress implements the source-coding toolbox the IoB leaf nodes
// use to shrink sensor streams before they reach the link: lossless delta/
// varint and Golomb-Rice coding for biopotential and IMU samples,
// canonical Huffman as an entropy back-end, IMA-ADPCM for audio, and an
// 8×8-DCT MJPEG-style intraframe codec for video (the paper names MJPEG
// explicitly as the leaf-node video reduction).
//
// Compression trades leaf-node compute for link bits; the partition and
// iob packages consume the measured ratios to decide when that trade wins.
package compress

import (
	"errors"
	"fmt"
)

// ErrCorrupt reports an undecodable bitstream.
var ErrCorrupt = errors.New("compress: corrupt stream")

// bitWriter packs bits MSB-first into a byte slice.
type bitWriter struct {
	buf  []byte
	cur  uint64
	nCur uint // bits held in cur
}

// writeBits appends the low n bits of v (MSB of those n first).
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("compress: writeBits(%d bits)", n))
	}
	for n > 0 {
		take := 8 - w.nCur%8
		if take > n {
			take = n
		}
		bits := (v >> (n - take)) & ((1 << take) - 1)
		w.cur = w.cur<<take | bits
		w.nCur += take
		n -= take
		if w.nCur%8 == 0 {
			w.buf = append(w.buf, byte(w.cur))
			w.cur = 0
		}
	}
}

// writeUnary emits q one-bits followed by a zero bit.
func (w *bitWriter) writeUnary(q uint32) {
	for q >= 32 {
		w.writeBits((1<<32)-1, 32)
		q -= 32
	}
	// q ones then a terminating zero.
	w.writeBits((uint64(1)<<(q+1))-2, uint(q)+1)
}

// bytes flushes any partial byte (zero-padded) and returns the buffer.
func (w *bitWriter) bytes() []byte {
	if rem := w.nCur % 8; rem != 0 {
		w.cur <<= 8 - rem
		w.buf = append(w.buf, byte(w.cur))
		w.cur = 0
		w.nCur += 8 - rem
	}
	return w.buf
}

// bitReader reads bits MSB-first from a byte slice.
type bitReader struct {
	buf []byte
	pos uint // bit position
}

// readBits reads n bits; it returns an error past end-of-stream.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("compress: readBits(%d bits)", n))
	}
	var v uint64
	for n > 0 {
		byteIdx := r.pos / 8
		if int(byteIdx) >= len(r.buf) {
			return 0, ErrCorrupt
		}
		bitOff := r.pos % 8
		take := 8 - bitOff
		if take > n {
			take = n
		}
		b := r.buf[byteIdx]
		bits := uint64(b>>(8-bitOff-take)) & ((1 << take) - 1)
		v = v<<take | bits
		r.pos += take
		n -= take
	}
	return v, nil
}

// --- Varint (LEB128) and zigzag ------------------------------------------

// appendUvarint appends v in LEB128.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// uvarint decodes a LEB128 value, returning the value and bytes consumed
// (0 on corruption).
func uvarint(src []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, b := range src {
		if i >= 10 {
			return 0, 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1
		}
		shift += 7
	}
	return 0, 0
}

// zigzag maps signed to unsigned: 0,-1,1,-2,2 → 0,1,2,3,4.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Ratio returns the compression ratio original/compressed (higher is
// better); it returns 0 for an empty compressed size.
func Ratio(originalBytes, compressedBytes int) float64 {
	if compressedBytes <= 0 {
		return 0
	}
	return float64(originalBytes) / float64(compressedBytes)
}
