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

// --- Run-length encoding ---------------------------------------------------
