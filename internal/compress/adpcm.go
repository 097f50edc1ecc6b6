package compress

// IMA ADPCM (DVI4) audio codec: 4 bits per 16-bit sample, the classic
// ultra-cheap 4:1 speech compressor — light enough for a microwatt-class
// leaf node, which is why the audio pipelines use it before the link.

// imaIndexTable adjusts the step index from each 4-bit code.
var imaIndexTable = [16]int{
	-1, -1, -1, -1, 2, 4, 6, 8,
	-1, -1, -1, -1, 2, 4, 6, 8,
}

// imaStepTable is the standard 89-entry step size table.
var imaStepTable = [89]int{
	7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
	19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
	50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
	130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
	337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
	876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
	2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
	5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
	15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
}

// adpcmState is the codec predictor state.
type adpcmState struct {
	predictor int // int16 range
	index     int // 0..88
}

// encodeSample codes one sample and updates the state.
func (st *adpcmState) encodeSample(s int16) byte {
	step := imaStepTable[st.index]
	diff := int(s) - st.predictor

	var code byte
	if diff < 0 {
		code = 8
		diff = -diff
	}
	// Quantize diff against step: bits 2,1,0 correspond to step, step/2,
	// step/4.
	if diff >= step {
		code |= 4
		diff -= step
	}
	if diff >= step/2 {
		code |= 2
		diff -= step / 2
	}
	if diff >= step/4 {
		code |= 1
	}
	st.decodeSample(code) // keep encoder/decoder predictors in lockstep
	return code
}

// decodeSample reconstructs one sample from a code and updates the state.
func (st *adpcmState) decodeSample(code byte) int16 {
	step := imaStepTable[st.index]
	diff := step >> 3
	if code&4 != 0 {
		diff += step
	}
	if code&2 != 0 {
		diff += step >> 1
	}
	if code&1 != 0 {
		diff += step >> 2
	}
	if code&8 != 0 {
		st.predictor -= diff
	} else {
		st.predictor += diff
	}
	if st.predictor > 32767 {
		st.predictor = 32767
	} else if st.predictor < -32768 {
		st.predictor = -32768
	}
	st.index += imaIndexTable[code]
	if st.index < 0 {
		st.index = 0
	} else if st.index > 88 {
		st.index = 88
	}
	return int16(st.predictor)
}

// ADPCMEncode compresses 16-bit samples to 4 bits each. Format:
// uvarint(count), int16 initial predictor, byte index, packed nibbles
// (high nibble first).
func ADPCMEncode(samples []int16) []byte {
	out := appendUvarint(nil, uint64(len(samples)))
	var st adpcmState
	if len(samples) > 0 {
		st.predictor = int(samples[0])
	}
	out = append(out, byte(uint16(st.predictor)>>8), byte(uint16(st.predictor)))
	out = append(out, byte(st.index))
	var cur byte
	for i, s := range samples {
		code := st.encodeSample(s)
		if i%2 == 0 {
			cur = code << 4
		} else {
			out = append(out, cur|code)
		}
	}
	if len(samples)%2 == 1 {
		out = append(out, cur)
	}
	return out
}
