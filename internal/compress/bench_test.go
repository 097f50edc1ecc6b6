package compress

import (
	"testing"

	"wiban/internal/sensors"
	"wiban/internal/units"
)

func benchECG(n int) []int16 {
	g := sensors.NewECGSynth(250*units.Hertz, 72, 1)
	return sensors.QuantizeBits(g.Samples(n), 2.0, 12)
}

func BenchmarkDeltaVarintEncode(b *testing.B) {
	raw := benchECG(2500)
	b.SetBytes(int64(len(raw) * 2))
	for i := 0; i < b.N; i++ {
		EncodeDeltaVarint(raw)
	}
}

func BenchmarkRiceEncodeAuto(b *testing.B) {
	deltas := DeltaInt32(benchECG(2500))
	b.SetBytes(int64(len(deltas) * 2))
	for i := 0; i < b.N; i++ {
		RiceEncodeAuto(deltas)
	}
}

func BenchmarkHuffmanEncode(b *testing.B) {
	g := sensors.NewVideoSynth(160, 120, 2)
	src := g.NextFrame()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		HuffmanEncode(src)
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	g := sensors.NewVideoSynth(160, 120, 2)
	enc := HuffmanEncode(g.NextFrame())
	b.SetBytes(int64(160 * 120))
	for i := 0; i < b.N; i++ {
		if _, err := HuffmanDecode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkADPCMEncode(b *testing.B) {
	g := sensors.NewAudioSynth(16*units.Kilohertz, 3)
	raw := sensors.Quantize(audioSamples(g, 16000), 1.0)
	b.SetBytes(int64(len(raw) * 2))
	for i := 0; i < b.N; i++ {
		ADPCMEncode(raw)
	}
}

func BenchmarkDCTBlock(b *testing.B) {
	var block [64]float64
	for i := range block {
		block[i] = float64(i%16) * 8
	}
	for i := 0; i < b.N; i++ {
		blk := block
		fdct8(&blk)
		idct8(&blk)
	}
}

func BenchmarkFrameDecodeQVGA(b *testing.B) {
	g := sensors.NewVideoSynth(320, 240, 4)
	c, err := NewFrameCodec(320, 240, 50)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := c.Encode(g.NextFrame())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(320 * 240)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
