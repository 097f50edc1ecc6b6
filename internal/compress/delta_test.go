package compress

import (
	"bytes"
	"math"
	"testing"
)

// TestBitWriterReaderBoundaries round-trips bit runs chosen to land on
// every alignment: single bits, exact byte multiples, 7/9-bit straddles
// and full 64-bit words, through the package's bitWriter/bitReader.
func TestBitWriterReaderBoundaries(t *testing.T) {
	widths := []uint{1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64}
	w := &bitWriter{}
	var want []uint64
	for i, n := range widths {
		// A value pattern exercising both all-ones and sparse bits at
		// each width.
		v := (uint64(0xdeadbeefcafef00d) >> uint(i)) & (math.MaxUint64 >> (64 - n))
		w.writeBits(v, n)
		want = append(want, v)
	}
	buf := w.bytes()
	r := &bitReader{buf: buf}
	for i, n := range widths {
		got, err := r.readBits(n)
		if err != nil {
			t.Fatalf("readBits(%d) at %d: %v", n, i, err)
		}
		if got != want[i] {
			t.Fatalf("width %d: got %#x want %#x", n, got, want[i])
		}
	}
	// Reading past the zero-padded tail must fail rather than invent bits.
	if _, err := r.readBits(8); err == nil {
		t.Error("readBits past end-of-stream succeeded")
	}
}

// TestBitRoundTripAtBlockEdges writes exactly 8·k bits so the buffer ends
// on a byte boundary with no padding, then one extra bit to force a
// padded final byte — both must round-trip.
func TestBitRoundTripAtBlockEdges(t *testing.T) {
	for _, extra := range []uint{0, 1} {
		w := &bitWriter{}
		for i := 0; i < 16; i++ {
			w.writeBits(uint64(i), 8)
		}
		if extra > 0 {
			w.writeBits(1, extra)
		}
		buf := w.bytes()
		wantLen := 16 + int(extra+7)/8
		if len(buf) != wantLen {
			t.Fatalf("extra=%d: len=%d want %d", extra, len(buf), wantLen)
		}
		r := &bitReader{buf: buf}
		for i := 0; i < 16; i++ {
			v, err := r.readBits(8)
			if err != nil || v != uint64(i) {
				t.Fatalf("extra=%d byte %d: %d, %v", extra, i, v, err)
			}
		}
		if extra > 0 {
			if v, err := r.readBits(1); err != nil || v != 1 {
				t.Fatalf("extra bit: %d, %v", v, err)
			}
		}
	}
}

// TestDeltaIntsRoundTrip covers monotone, alternating-sign and extreme
// columns, including the int64 limits where the delta itself overflows
// (two's-complement wraparound must still round-trip).
func TestDeltaIntsRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0, -1, -2},
		{0, math.MaxInt64, math.MinInt64, -1, 1},
		{1 << 40, 1<<40 + 1, 1<<40 - 7},
	}
	for i, vals := range cases {
		enc := AppendDeltaInts(nil, vals)
		dec := make([]int64, len(vals))
		n, err := DecodeDeltaInts(enc, dec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(enc) {
			t.Errorf("case %d: consumed %d of %d bytes", i, n, len(enc))
		}
		for j := range vals {
			if dec[j] != vals[j] {
				t.Fatalf("case %d[%d]: got %d want %d", i, j, dec[j], vals[j])
			}
		}
	}
	// A sorted small-delta column must actually compress.
	ramp := make([]int64, 1000)
	for i := range ramp {
		ramp[i] = int64(1e9) + int64(i)
	}
	if enc := AppendDeltaInts(nil, ramp); len(enc) > 1010 {
		t.Errorf("ramp column: %d bytes for 1000 values, want ≈1 byte/value", len(enc))
	}
}

// TestDelta2IntsRoundTrip covers the delta-of-delta codec across the same
// adversarial shapes as the first-order codec, plus the workload it
// exists for: perfectly periodic timestamp columns.
func TestDelta2IntsRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{7},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0, -1, -2},
		{0, math.MaxInt64, math.MinInt64, -1, 1},
		{1 << 40, 1<<40 + 1, 1<<40 - 7},
		{1000, 2000, 3000, 3000, 5000, 4999},
	}
	for i, vals := range cases {
		enc := AppendDelta2Ints(nil, vals)
		dec := make([]int64, len(vals))
		n, err := DecodeDelta2Ints(enc, dec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(enc) {
			t.Errorf("case %d: consumed %d of %d bytes", i, n, len(enc))
		}
		for j := range vals {
			if dec[j] != vals[j] {
				t.Fatalf("case %d[%d]: got %d want %d", i, j, dec[j], vals[j])
			}
		}
	}
	// The point of second-order deltas: a fixed-cadence timestamp column
	// costs one byte per element after the ramp is established, even when
	// the cadence itself needs a wide varint every sample under
	// first-order deltas.
	stamps := make([]int64, 1000)
	for i := range stamps {
		stamps[i] = int64(i+1) * 30_000 // 30 s cadence in ms
	}
	d2 := AppendDelta2Ints(nil, stamps)
	d1 := AppendDeltaInts(nil, stamps)
	if len(d2) > 1010 {
		t.Errorf("periodic column: %d bytes for 1000 stamps, want ≈1 byte/stamp", len(d2))
	}
	if len(d2) >= len(d1) {
		t.Errorf("delta-of-delta (%d bytes) did not beat first-order (%d bytes) on its own workload", len(d2), len(d1))
	}
}

// TestDelta2Truncated checks the second-order decoder reports ErrCorrupt
// on every mid-element cut.
func TestDelta2Truncated(t *testing.T) {
	enc := AppendDelta2Ints(nil, []int64{1 << 50, -(1 << 50), 3})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeDelta2Ints(enc[:cut], make([]int64, 3)); err == nil {
			t.Fatalf("cut=%d decoded", cut)
		}
	}
}

// TestXorFloatsRoundTrip checks exact bit-level reproduction including
// negative zero, NaN payloads and infinities.
func TestXorFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, 1, 1, 1.0000000001, -3.5, math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), math.NaN(), 2.5e-300, 1e300}
	enc := AppendXorFloats(nil, vals)
	dec := make([]float64, len(vals))
	n, err := DecodeXorFloats(enc, dec)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	for i, v := range vals {
		if math.Float64bits(dec[i]) != math.Float64bits(v) {
			t.Errorf("[%d]: got %x want %x", i, math.Float64bits(dec[i]), math.Float64bits(v))
		}
	}
	// A repeated value costs one byte after the first occurrence.
	flat := AppendXorFloats(nil, []float64{42.125, 42.125, 42.125, 42.125})
	if want := len(AppendXorFloats(nil, []float64{42.125})) + 3; len(flat) != want {
		t.Errorf("constant column: %d bytes, want %d", len(flat), want)
	}
}

// TestPackBools round-trips lengths straddling the byte boundary.
func TestPackBools(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65} {
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = i%3 == 0
		}
		enc := PackBools(nil, vals)
		if len(enc) != PackedBoolLen(n) {
			t.Fatalf("n=%d: %d bytes, want %d", n, len(enc), PackedBoolLen(n))
		}
		dec := make([]bool, n)
		if err := UnpackBools(enc, dec); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("n=%d[%d]: got %v", n, i, dec[i])
			}
		}
	}
	if err := UnpackBools(nil, make([]bool, 1)); err == nil {
		t.Error("UnpackBools on short input succeeded")
	}
}

// TestDecodeTruncated checks every decoder reports ErrCorrupt, not
// garbage, when the stream is cut mid-element.
func TestDecodeTruncated(t *testing.T) {
	enc := AppendDeltaInts(nil, []int64{1 << 50, -(1 << 50)})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeDeltaInts(enc[:cut], make([]int64, 2)); err == nil {
			t.Fatalf("ints: cut=%d decoded", cut)
		}
	}
	fenc := AppendXorFloats(nil, []float64{1e300, -1e-300})
	for cut := 0; cut < len(fenc); cut++ {
		if _, err := DecodeXorFloats(fenc[:cut], make([]float64, 2)); err == nil {
			t.Fatalf("floats: cut=%d decoded", cut)
		}
	}
	// Overlong varint (11 continuation bytes) must be rejected.
	over := bytes.Repeat([]byte{0x80}, 11)
	if _, n := DecodeUvarint(over); n != 0 {
		t.Error("overlong varint accepted")
	}
}

// TestSkipUvarintsMatchesDecode pins SkipUvarints to the decoders'
// acceptance rule at every alignment its word-at-a-time scan can meet: a
// varint of 1 to 12 bytes (ten continuation bytes are one too many)
// after 0–16 one-byte varints, then more of them, whole and cut short.
func TestSkipUvarintsMatchesDecode(t *testing.T) {
	for lead := 0; lead <= 16; lead++ {
		for width := 1; width <= 12; width++ {
			var src []byte
			for i := 0; i < lead; i++ {
				src = append(src, byte(i))
			}
			for i := 1; i < width; i++ {
				src = append(src, 0x80|byte(i))
			}
			src = append(src, 0x01)
			for i := 0; i < 10; i++ {
				src = append(src, 0x7f)
			}
			for cut := 0; cut <= len(src); cut++ {
				for n := 1; n <= lead+11; n++ {
					want, werr := DecodeXorFloats(src[:cut], make([]float64, n))
					got, gerr := SkipUvarints(src[:cut], n)
					if (gerr == nil) != (werr == nil) || got != want {
						t.Fatalf("lead %d, width %d, cut %d, n %d: SkipUvarints = (%d, %v), decode = (%d, %v)",
							lead, width, cut, n, got, gerr, want, werr)
					}
				}
			}
		}
	}
}
