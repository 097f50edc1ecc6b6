package desim

import "math/rand"

// NewRand returns a generator whose stream is bit-identical to
// rand.New(rand.NewSource(seed)) — the stream the Go 1 compatibility
// promise freezes and every recorded fingerprint was drawn from — but
// whose seeding is O(1): a state word is built on its first read, so a
// stream that draws a few dozen values never pays for the 607-word table
// math/rand fills up front. Reseed it with (*rand.Rand).Seed; the stream
// after Seed(s) is again rand.NewSource(s)'s.
func NewRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// math/rand's additive lagged-Fibonacci generator (rng.go) and the Lehmer
// generator x ← 48271·x mod 2³¹−1 that seeds it.
const (
	srcLen     = 607             // state words (rngLen)
	srcTap     = 273             // lag from the feed to the tap (rngTap)
	srcFeed    = srcLen - srcTap // feed index after a seed (334)
	srcMask    = 1<<63 - 1
	lehmerA    = 48271
	lehmerM    = 1<<31 - 1
	lehmerSkip = 20 // Lehmer steps a seed discards before word 0
)

// source is math/rand's rngSource with lazy seeding. Seed stores only the
// reduced seed x0. Seeded word i is rngCooked[i] XOR three Lehmer outputs
// — steps 21+3i, 22+3i and 23+3i, i.e. x0·48271^k mod 2³¹−1 — so it can
// be built on its own from seedTab, in any order. Draw k ≤ 334 reads a
// word no draw has read yet at feed index 334−k and, for k ≤ 273, at tap
// index 607−k; fill builds exactly those. Every later read hits a word an
// earlier draw built or wrote, so from draw 335 on the source runs
// math/rand's loop over a fully populated table.
type source struct {
	tap, feed int
	cold      bool   // the next draw reads a word not built yet
	x0        uint64 // the seed, reduced as math/rand reduces it
	vec       [srcLen]int64
}

// Seed rewinds the source to rand.NewSource(seed)'s stream.
func (s *source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.cold = 0, srcFeed, true
}

// Int63 and Uint64 each carry the whole draw, so a warm draw is one call:
// rand.Rand's Float64, Intn, NormFloat64 and ExpFloat64 reach the source
// through Int63, its Uint64 through Uint64. Only fill is out of line.
func (s *source) Int63() int64 {
	if s.cold {
		s.fill()
	}
	return int64(s.next() & srcMask)
}

func (s *source) Uint64() uint64 {
	if s.cold {
		s.fill()
	}
	return s.next()
}

// next is math/rand's draw over a table whose next two reads are built.
func (s *source) next() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fill builds the seeded words the next draw reads for the first time:
// its feed word and, while the tap still walks the top of the table
// (feed index ≥ 61, tap index ≥ 334), its tap word. The draw that reads
// feed index 0 is the last cold one.
func (s *source) fill() {
	f := s.feed - 1
	s.vec[f] = seedTab[f].cooked ^ lehmerWord(s.x0, &seedTab[f].pow)
	if t := f + srcTap; t >= srcFeed {
		s.vec[t] = seedTab[t].cooked ^ lehmerWord(s.x0, &seedTab[t].pow)
	}
	s.cold = f > 0
}

// lehmerWord is the Lehmer half of a seeded word for reduced seed x0.
func lehmerWord(x0 uint64, pow *[3]uint64) int64 {
	return int64(mulMod(x0, pow[0]))<<40 ^ int64(mulMod(x0, pow[1]))<<20 ^ int64(mulMod(x0, pow[2]))
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerM + p>>31
	if r >= lehmerM {
		r -= lehmerM
	}
	return r
}

// seedTab[i] is what seeded word i is built from: math/rand's
// rngCooked[i], recovered at init, and the Lehmer steps 21+3i, 22+3i and
// 23+3i as powers of 48271 mod 2³¹−1.
var seedTab [srcLen]struct {
	cooked int64
	pow    [3]uint64
}

// init fills seedTab: the powers, then rngCooked recovered from the first
// srcLen outputs of rand.NewSource(1). Output k is v[feed]+v[tap] over the
// seeded table v, where a slot the feed already passed holds the output
// that wrote it: outputs 274..334 expose v[0..60] and outputs 335..607
// expose v[334..606] as differences of two outputs, and with those,
// outputs 1..273 expose v[61..333]. Seed 1 has x0 = 1, so v[i] XOR
// lehmerWord(1, i's powers) is rngCooked[i].
func init() {
	p := uint64(1)
	for k := 1; k <= lehmerSkip; k++ {
		p = mulMod(p, lehmerA)
	}
	for i := range seedTab {
		for j := range seedTab[i].pow {
			p = mulMod(p, lehmerA)
			seedTab[i].pow[j] = p
		}
	}
	r := rand.New(rand.NewSource(1))
	var out [srcLen + 1]int64 // out[k] is draw k, 1-based
	for k := 1; k <= srcLen; k++ {
		out[k] = int64(r.Uint64())
	}
	var v [srcLen]int64
	for k := srcTap + 1; k <= srcLen; k++ {
		i := srcFeed - k // feed index of draw k
		if i < 0 {
			i += srcLen
		}
		v[i] = out[k] - out[k-srcTap]
	}
	for k := 1; k <= srcTap; k++ {
		v[srcFeed-k] = out[k] - v[srcLen-k]
	}
	for i := range seedTab {
		seedTab[i].cooked = v[i] ^ lehmerWord(1, &seedTab[i].pow)
	}
}
