package compress

// Decoders whose encoders the binaries run, kept here as the inverses the
// round-trip tests hold those encoders to, and the RLE codec, which only
// these tests exercise. No binary links any of them.

import "wiban/internal/sensors"

// ADPCMDecode reverses ADPCMEncode. The reconstruction is lossy; the
// decoder output tracks the encoder's internal prediction exactly.
func ADPCMDecode(src []byte) ([]int16, error) {
	n, k := uvarint(src)
	if k == 0 || n > 1<<30 {
		return nil, ErrCorrupt
	}
	src = src[k:]
	if len(src) < 3 {
		return nil, ErrCorrupt
	}
	var st adpcmState
	st.predictor = int(int16(uint16(src[0])<<8 | uint16(src[1])))
	st.index = int(src[2])
	if st.index > 88 {
		return nil, ErrCorrupt
	}
	src = src[3:]
	need := (int(n) + 1) / 2
	if len(src) < need {
		return nil, ErrCorrupt
	}
	out := make([]int16, 0, n)
	for i := uint64(0); i < n; i++ {
		b := src[i/2]
		var code byte
		if i%2 == 0 {
			code = b >> 4
		} else {
			code = b & 0x0f
		}
		out = append(out, st.decodeSample(code))
	}
	return out, nil
}

// DecodeDeltaVarint reverses EncodeDeltaVarint.
func DecodeDeltaVarint(src []byte) ([]int16, error) {
	n, k := uvarint(src)
	if k == 0 {
		return nil, ErrCorrupt
	}
	src = src[k:]
	if n > 1<<30 {
		return nil, ErrCorrupt
	}
	out := make([]int16, 0, n)
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		u, k := uvarint(src)
		if k == 0 {
			return nil, ErrCorrupt
		}
		src = src[k:]
		prev += unzigzag(u)
		if prev < -32768 || prev > 32767 {
			return nil, ErrCorrupt
		}
		out = append(out, int16(prev))
	}
	return out, nil
}

// RiceDecode reverses RiceEncode.
func RiceDecode(src []byte) ([]int32, error) {
	k64, n1 := uvarint(src)
	if n1 == 0 || k64 > 30 {
		return nil, ErrCorrupt
	}
	src = src[n1:]
	count, n2 := uvarint(src)
	if n2 == 0 || count > 1<<30 {
		return nil, ErrCorrupt
	}
	src = src[n2:]
	k := uint(k64)
	r := &bitReader{buf: src}
	out := make([]int32, 0, count)
	for i := uint64(0); i < count; i++ {
		q, err := r.readUnary()
		if err != nil {
			return nil, err
		}
		var u uint64
		if q == 1<<12 {
			u, err = r.readBits(64)
			if err != nil {
				return nil, err
			}
		} else {
			u = uint64(q) << k
			if k > 0 {
				rem, err := r.readBits(k)
				if err != nil {
					return nil, err
				}
				u |= rem
			}
		}
		v := unzigzag(u)
		if v < -(1<<31) || v > (1<<31)-1 {
			return nil, ErrCorrupt
		}
		out = append(out, int32(v))
	}
	return out, nil
}

// UndeltaInt16 inverts DeltaInt32; it reports corruption if any
// reconstructed sample overflows int16.
func UndeltaInt16(deltas []int32) ([]int16, error) {
	out := make([]int16, len(deltas))
	acc := int64(0)
	for i, d := range deltas {
		acc += int64(d)
		if acc < -32768 || acc > 32767 {
			return nil, ErrCorrupt
		}
		out[i] = int16(acc)
	}
	return out, nil
}

// RLEEncode byte-wise run-length encodes src as (count, value) pairs with
// LEB128 counts — effective on event-stream and mask data.
func RLEEncode(src []byte) []byte {
	out := appendUvarint(nil, uint64(len(src)))
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		out = appendUvarint(out, uint64(j-i))
		out = append(out, src[i])
		i = j
	}
	return out
}

// RLEDecode reverses RLEEncode.
func RLEDecode(src []byte) ([]byte, error) {
	total, k := uvarint(src)
	if k == 0 || total > 1<<30 {
		return nil, ErrCorrupt
	}
	src = src[k:]
	out := make([]byte, 0, total)
	for uint64(len(out)) < total {
		run, k := uvarint(src)
		if k == 0 || run == 0 || uint64(len(out))+run > total {
			return nil, ErrCorrupt
		}
		src = src[k:]
		if len(src) < 1 {
			return nil, ErrCorrupt
		}
		v := src[0]
		src = src[1:]
		for j := uint64(0); j < run; j++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// readUnary counts one-bits up to the terminating zero.
func (r *bitReader) readUnary() (uint32, error) {
	var q uint32
	for {
		b, err := r.readBits(1)
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return q, nil
		}
		q++
		if q > 1<<24 {
			return 0, ErrCorrupt
		}
	}
}

// audioSamples draws the next n samples from g.
func audioSamples(g *sensors.AudioSynth, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
