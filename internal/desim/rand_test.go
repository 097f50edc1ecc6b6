package desim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawMethods are the rand.Rand entry points a model draws through. Each
// returns its draw's bits, so floats compare bit for bit. Intn alternates
// a small bound (Int31n's path) with a large one (Int63n's).
var drawMethods = []struct {
	name string
	draw func(r *rand.Rand, i int) uint64
}{
	{"Uint64", func(r *rand.Rand, _ int) uint64 { return r.Uint64() }},
	{"Int63", func(r *rand.Rand, _ int) uint64 { return uint64(r.Int63()) }},
	{"Float64", func(r *rand.Rand, _ int) uint64 { return math.Float64bits(r.Float64()) }},
	{"Intn", func(r *rand.Rand, i int) uint64 {
		if i%2 == 0 {
			return uint64(r.Intn(1 + i%1000))
		}
		return uint64(r.Intn(1 + int(Mix64(uint64(i))>>24)))
	}},
	{"NormFloat64", func(r *rand.Rand, _ int) uint64 { return math.Float64bits(r.NormFloat64()) }},
	{"ExpFloat64", func(r *rand.Rand, _ int) uint64 { return math.Float64bits(r.ExpFloat64()) }},
}

// sameDraws draws n values through method m from both generators and
// reports the first that differs.
func sameDraws(t *testing.T, what string, got, want *rand.Rand, m, n int) bool {
	t.Helper()
	d := drawMethods[m]
	for i := 0; i < n; i++ {
		if g, w := d.draw(got, i), d.draw(want, i); g != w {
			t.Errorf("%s: %s draw %d = %#x, math/rand gives %#x", what, d.name, i, g, w)
			return false
		}
	}
	return true
}

// drawsPerCheck crosses every boundary of the lazy table: the last draw
// that builds a tap word (273), the last cold draw (334), the first
// wrap of the feed (335) and of the tap (607), and a second lap.
const drawsPerCheck = 1500

// TestSourceMatchesMathRand is the differential guard for NewRand: the Go
// 1 compatibility promise freezes rand.NewSource's stream, so NewRand
// must reproduce it bit for bit from every seed, through every entry
// point a model uses. Edge seeds run every method; the 20,000 random
// seeds take the methods in turn.
func TestSourceMatchesMathRand(t *testing.T) {
	edge := []int64{0, 1, -1, 2, -2, lehmerM, -lehmerM, lehmerM + 1, 89482311,
		math.MinInt64, math.MaxInt64}
	for _, seed := range edge {
		for m := range drawMethods {
			what := fmt.Sprintf("seed %d", seed)
			sameDraws(t, what, NewRand(seed), rand.New(rand.NewSource(seed)), m, drawsPerCheck)
		}
	}
	seeds := rand.New(rand.NewSource(20261017))
	for i := 0; i < 20000 && !t.Failed(); i++ {
		seed := int64(seeds.Uint64())
		what := fmt.Sprintf("seed %d", seed)
		sameDraws(t, what, NewRand(seed), rand.New(rand.NewSource(seed)), i%len(drawMethods), drawsPerCheck)
	}
}

// TestSourceReseedAcrossColdBoundary reseeds after draws that stop on
// either side of every lazy-table boundary: the stream after Seed must be
// a fresh rand.NewSource's, whatever the old stream had built or written.
func TestSourceReseedAcrossColdBoundary(t *testing.T) {
	for _, n := range reseedPoints {
		for m := range drawMethods {
			r := NewRand(42)
			sameDraws(t, "before reseed", r, rand.New(rand.NewSource(42)), m, n)
			r.Seed(-7)
			what := fmt.Sprintf("reseed after %d draws", n)
			sameDraws(t, what, r, rand.New(rand.NewSource(-7)), m, drawsPerCheck)
		}
	}
}

// reseedPoints are the draw counts a reseed is checked after.
var reseedPoints = []int{0, 1, 273, 274, 333, 334, 335, 607}

// FuzzSource draws a mix of methods from one seed, reseeds and draws the
// mix again, against rand.NewSource. The seed corpus reseeds at every
// lazy-table boundary.
func FuzzSource(f *testing.F) {
	for i, n := range reseedPoints {
		f.Add(int64(i), uint16(n), int64(-i), []byte{0, 1, 2, 3, 4, 5})
	}
	f.Add(int64(math.MinInt64), uint16(2000), int64(math.MaxInt64), []byte{4})
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, reseed int64, mix []byte) {
		if len(mix) == 0 {
			mix = []byte{0}
		}
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		run := func(what string, n int) {
			for i := 0; i < n; i++ {
				if !sameDraws(t, what, got, want, int(mix[i%len(mix)])%len(drawMethods), 1) {
					return
				}
			}
		}
		run(fmt.Sprintf("seed %d", seed), int(draws)%2048)
		got.Seed(reseed)
		want.Seed(reseed)
		run(fmt.Sprintf("reseed %d", reseed), 700)
	})
}

// benchSources are the two generators the seeding benchmarks compare.
var benchSources = []struct {
	name string
	new  func(seed int64) *rand.Rand
}{
	{"desim", NewRand},
	{"math-rand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
}

// BenchmarkSeed is one reseed of a long-lived generator, the per-stream
// cost the fleet engine pays three times per wearer.
func BenchmarkSeed(b *testing.B) {
	for _, src := range benchSources {
		b.Run(src.name, func(b *testing.B) {
			r := src.new(1)
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
			}
		})
	}
}

// sinkFloat keeps benchmarked draws live.
var sinkFloat float64

// BenchmarkSeedThenDraws is a reseed followed by a stream's draws: 30 is
// a typical scenario or load stream, 5000 a long kernel stream.
func BenchmarkSeedThenDraws(b *testing.B) {
	for _, n := range []int{30, 5000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for _, src := range benchSources {
				b.Run(src.name, func(b *testing.B) {
					r := src.new(1)
					var sum float64
					for i := 0; i < b.N; i++ {
						r.Seed(int64(i))
						for j := 0; j < n; j++ {
							sum += r.Float64()
						}
					}
					sinkFloat = sum
				})
			}
		})
	}
}
