package compress

// Exported column codecs for the telemetry store: zigzag-delta and
// delta-of-delta varint for integer columns, XOR-prev varint for float
// columns, and a bit-packed boolean column. internal/telemetry picks one
// of them per column in its column tables (codec.go there). The encoders
// are self-delimiting only in combination with a caller-kept element
// count: telemetry frames store the count once per frame rather than
// once per column.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// AppendUvarint appends v in LEB128 (7 bits per byte, low group first).
func AppendUvarint(dst []byte, v uint64) []byte { return appendUvarint(dst, v) }

// DecodeUvarint decodes one LEB128 value, returning the value and the
// bytes consumed; consumed is 0 on a truncated or overlong encoding.
func DecodeUvarint(src []byte) (uint64, int) { return uvarint(src) }

// AppendDeltaInts appends vals as zigzag varints of consecutive
// differences (first value differenced against zero). Sorted or
// slowly-varying columns collapse to one or two bytes per element.
func AppendDeltaInts(dst []byte, vals []int64) []byte {
	var prev int64
	for _, v := range vals {
		dst = appendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

// DecodeDeltaInts fills dst with len(dst) delta-decoded values from src
// and returns the bytes consumed, or ErrCorrupt on a truncated stream.
func DecodeDeltaInts(src []byte, dst []int64) (int, error) {
	var prev int64
	pos := 0
	for i := range dst {
		u, n := uvarint(src[pos:])
		if n == 0 {
			return 0, ErrCorrupt
		}
		pos += n
		prev += unzigzag(u)
		dst[i] = prev
	}
	return pos, nil
}

// AppendDelta2Ints appends vals as zigzag varints of second-order
// differences — each element is encoded as (vᵢ−vᵢ₋₁)−(vᵢ₋₁−vᵢ₋₂), the
// Gorilla-style delta-of-delta used for timestamps. A perfectly periodic
// column (sampling instants at a fixed cadence) collapses to one byte
// per element after the first two, regardless of the cadence magnitude;
// AppendDeltaInts would pay the varint width of the cadence every time.
func AppendDelta2Ints(dst []byte, vals []int64) []byte {
	var prev, prevDelta int64
	for _, v := range vals {
		delta := v - prev
		dst = appendUvarint(dst, zigzag(delta-prevDelta))
		prev, prevDelta = v, delta
	}
	return dst
}

// DecodeDelta2Ints fills dst with len(dst) delta-of-delta-decoded values
// from src and returns the bytes consumed, or ErrCorrupt on a truncated
// stream.
func DecodeDelta2Ints(src []byte, dst []int64) (int, error) {
	var prev, prevDelta int64
	pos := 0
	for i := range dst {
		u, n := uvarint(src[pos:])
		if n == 0 {
			return 0, ErrCorrupt
		}
		pos += n
		prevDelta += unzigzag(u)
		prev += prevDelta
		dst[i] = prev
	}
	return pos, nil
}

// AppendXorFloats appends vals as varints of each value's IEEE-754 bits
// XORed with the previous value's bits (Gorilla-style predecessor
// prediction, varint instead of leading/trailing-zero headers). Repeated
// values cost one byte; values sharing sign/exponent shed their high
// bytes.
func AppendXorFloats(dst []byte, vals []float64) []byte {
	var prev uint64
	for _, v := range vals {
		bits := math.Float64bits(v)
		dst = appendUvarint(dst, bits^prev)
		prev = bits
	}
	return dst
}

// DecodeXorFloats fills dst with len(dst) XOR-decoded floats from src and
// returns the bytes consumed, or ErrCorrupt on a truncated stream.
func DecodeXorFloats(src []byte, dst []float64) (int, error) {
	var prev uint64
	pos := 0
	for i := range dst {
		u, n := uvarint(src[pos:])
		if n == 0 {
			return 0, ErrCorrupt
		}
		pos += n
		prev ^= u
		dst[i] = math.Float64frombits(prev)
	}
	return pos, nil
}

// SkipUvarints returns the bytes taken by the n varints at the start of
// src without decoding them, or ErrCorrupt when they are not all there.
// It accepts exactly the streams DecodeDeltaInts, DecodeDelta2Ints and
// DecodeXorFloats accept for n elements — each varint must end within 10
// bytes — and consumes as many bytes, so a caller can check a column it
// has no use for at a fraction of the cost of decoding it.
func SkipUvarints(src []byte, n int) (int, error) {
	const stops = 0x8080808080808080 // each byte's continuation bit
	pos, run := 0, 0                 // run: continuation bytes since the last terminator
	// Eight bytes at a time while they cannot hold the last terminator:
	// a word holds at most eight.
	for ; n > 8 && pos+8 <= len(src); pos += 8 {
		ends := ^binary.LittleEndian.Uint64(src[pos:]) & stops // terminators
		if ends == 0 {
			if run += 8; run >= 10 {
				return 0, ErrCorrupt
			}
			continue
		}
		if run+bits.TrailingZeros64(ends)/8 >= 10 {
			return 0, ErrCorrupt
		}
		run = bits.LeadingZeros64(ends) / 8
		n -= bits.OnesCount64(ends)
	}
	for ; n > 0; pos++ {
		if pos == len(src) || run == 9 && src[pos] >= 0x80 {
			return 0, ErrCorrupt
		}
		if src[pos] < 0x80 {
			n--
			run = 0
		} else {
			run++
		}
	}
	return pos, nil
}

// PackBools appends vals bit-packed MSB-first, ⌈n/8⌉ bytes for n values.
func PackBools(dst []byte, vals []bool) []byte {
	var w bitWriter
	w.buf = dst
	for _, v := range vals {
		var bit uint64
		if v {
			bit = 1
		}
		w.writeBits(bit, 1)
	}
	return w.bytes()
}

// PackedBoolLen is the encoded size of n bit-packed booleans.
func PackedBoolLen(n int) int { return (n + 7) / 8 }

// UnpackBools fills dst with len(dst) bits from src (MSB-first), or
// returns ErrCorrupt when src is shorter than PackedBoolLen(len(dst)).
func UnpackBools(src []byte, dst []bool) error {
	r := bitReader{buf: src}
	for i := range dst {
		b, err := r.readBits(1)
		if err != nil {
			return err
		}
		dst[i] = b == 1
	}
	return nil
}
