package compress

import (
	"encoding/binary"
	"testing"
)

// FuzzDeltaVarint drives the delta/varint codec two ways from one input:
// the bytes reinterpreted as an int64 column must round-trip exactly, and
// the bytes treated as an already-encoded stream must decode without
// panicking (errors are fine — fuzz inputs are mostly corrupt streams),
// and SkipUvarints must accept exactly the streams the decoders accept.
func FuzzDeltaVarint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x80, 0x80, 0x80})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0xdeadbeef))
	f.Add(AppendDeltaInts(nil, []int64{-1, 1, -2, 2, 1 << 62}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: data → column → encode → decode → column.
		vals := make([]int64, len(data)/8)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[8*i:]))
		}
		enc := AppendDeltaInts(nil, vals)
		dec := make([]int64, len(vals))
		n, err := DecodeDeltaInts(enc, dec)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d bytes", n, len(enc))
		}
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("[%d]: got %d want %d", i, dec[i], vals[i])
			}
		}
		enc2 := AppendDelta2Ints(nil, vals)
		dec2 := make([]int64, len(vals))
		n2, err := DecodeDelta2Ints(enc2, dec2)
		if err != nil {
			t.Fatalf("delta2 round-trip decode failed: %v", err)
		}
		if n2 != len(enc2) {
			t.Fatalf("delta2 consumed %d of %d bytes", n2, len(enc2))
		}
		for i := range vals {
			if dec2[i] != vals[i] {
				t.Fatalf("delta2 [%d]: got %d want %d", i, dec2[i], vals[i])
			}
		}

		// Direction 2: data as a hostile encoded stream; the element
		// count is attacker-controlled too (first byte, capped).
		count := 1
		if len(data) > 0 {
			count = int(data[0]%64) + 1
		}
		out := make([]int64, count)
		if n, err := DecodeDeltaInts(data, out); err == nil && n > len(data) {
			t.Fatalf("decoder claimed %d bytes of a %d-byte stream", n, len(data))
		}
		out2 := make([]int64, count)
		if n, err := DecodeDelta2Ints(data, out2); err == nil && n > len(data) {
			t.Fatalf("delta2 decoder claimed %d bytes of a %d-byte stream", n, len(data))
		}
		fout := make([]float64, count)
		fn, ferr := DecodeXorFloats(data, fout)
		if ferr == nil && fn > len(data) {
			t.Fatalf("float decoder claimed %d bytes of a %d-byte stream", fn, len(data))
		}
		// Skipping a column must accept exactly what decoding it accepts,
		// and consume as many bytes.
		if skip, serr := SkipUvarints(data, count); (serr == nil) != (ferr == nil) || (ferr == nil && skip != fn) {
			t.Fatalf("SkipUvarints = (%d, %v), DecodeXorFloats = (%d, %v)", skip, serr, fn, ferr)
		}
	})
}
