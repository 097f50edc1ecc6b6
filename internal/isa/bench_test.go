package isa

import (
	"math"
	"testing"

	"wiban/internal/units"
)

func BenchmarkBiquadBlock(b *testing.B) {
	f := NewBandPass(250*units.Hertz, 10*units.Hertz, 0.7)
	in := make([]float64, 2500)
	for i := range in {
		in[i] = math.Sin(float64(i) / 5)
	}
	b.SetBytes(int64(len(in) * 8))
	for i := 0; i < b.N; i++ {
		for _, x := range in {
			f.Process(x)
		}
	}
}

func BenchmarkVADSecond(b *testing.B) {
	in := make([]float64, 16000)
	for i := range in {
		in[i] = math.Sin(float64(i)/3) * 0.3
	}
	b.SetBytes(int64(len(in) * 8))
	for i := 0; i < b.N; i++ {
		v := NewVAD(16 * units.Kilohertz)
		for _, s := range in {
			v.Process(s)
		}
	}
}
