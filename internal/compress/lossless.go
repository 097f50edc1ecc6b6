package compress

// Lossless coders for sampled sensor data. Biopotential and inertial
// signals are strongly low-pass: consecutive-sample deltas are small, so
// delta + zigzag + LEB128 varint routinely achieves 2–4× on ECG, and
// Golomb-Rice coding of the same residuals does slightly better with a
// well-chosen parameter.

// EncodeDeltaVarint losslessly compresses 16-bit samples by first-order
// delta followed by zigzag LEB128 varints.
func EncodeDeltaVarint(samples []int16) []byte {
	out := appendUvarint(nil, uint64(len(samples)))
	prev := int16(0)
	for _, s := range samples {
		d := int64(s) - int64(prev)
		out = appendUvarint(out, zigzag(d))
		prev = s
	}
	return out
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

// --- Golomb-Rice -----------------------------------------------------------

// ChooseRiceK picks the Rice parameter minimizing expected code length for
// the zigzagged values: k ≈ log2(mean).
func ChooseRiceK(vals []int32) uint {
	if len(vals) == 0 {
		return 0
	}
	var sum uint64
	for _, v := range vals {
		sum += zigzag(int64(v))
	}
	mean := sum / uint64(len(vals))
	k := uint(0)
	for mean >= 1<<(k+1) && k < 30 {
		k++
	}
	return k
}

// RiceEncode codes signed values with Rice parameter k (quotient unary,
// remainder k bits) after zigzag mapping. The header stores k and the
// count.
func RiceEncode(vals []int32, k uint) []byte {
	if k > 30 {
		k = 30
	}
	hdr := appendUvarint(nil, uint64(k))
	hdr = appendUvarint(hdr, uint64(len(vals)))
	w := &bitWriter{buf: hdr}
	for _, v := range vals {
		u := zigzag(int64(v))
		q := u >> k
		if q >= 1<<12 {
			// Escape pathological outliers: unary overflow marker
			// (2^12 ones) then the raw value in 64 bits. A quotient of
			// exactly 2^12 must escape too, or it reads as the marker.
			w.writeUnary(1 << 12)
			w.writeBits(u, 64)
			continue
		}
		w.writeUnary(uint32(q))
		if k > 0 {
			w.writeBits(u&((1<<k)-1), k)
		}
	}
	return w.bytes()
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

// RiceEncodeAuto encodes with the self-chosen parameter.
func RiceEncodeAuto(vals []int32) []byte {
	return RiceEncode(vals, ChooseRiceK(vals))
}

// DeltaInt32 returns first-order deltas of 16-bit samples widened to int32
// (for Rice coding).
func DeltaInt32(samples []int16) []int32 {
	out := make([]int32, len(samples))
	prev := int16(0)
	for i, s := range samples {
		out[i] = int32(s) - int32(prev)
		prev = s
	}
	return out
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

// --- Run-length encoding ---------------------------------------------------

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
