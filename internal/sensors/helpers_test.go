package sensors

// Helpers that only these tests use; no binary links them. Dequantize is
// the inverse the Quantize round-trip tests hold the encoder to.

// Frame returns the current frame index.
func (g *VideoSynth) Frame() int { return g.frame }

// Dequantize reverses Quantize.
func Dequantize(codes []int16, fullScale float64) []float64 {
	out := make([]float64, len(codes))
	for i, c := range codes {
		out[i] = float64(c) / 32767 * fullScale
	}
	return out
}
