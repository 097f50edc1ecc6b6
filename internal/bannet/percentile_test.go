package bannet

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"wiban/internal/desim"
)

// medianOf3Killer is Musser's adversarial input for median-of-three
// quicksort: with k = n/2, the odd values 1, 3, … interleaved with
// k+2, k+4, …, then the even values 2, 4, …, 2k (for even k it is a
// permutation of 1…n). It defeats a Hoare partition; lomutoKiller is the
// input that defeats selectNth's rounds.
func medianOf3Killer(n int) []desim.Time {
	k := n / 2
	xs := make([]desim.Time, n)
	for i := 0; i < k; i += 2 {
		xs[i] = desim.Time(i + 1)
		if i+1 < k {
			xs[i+1] = desim.Time(k + i + 2)
		}
	}
	for i := 0; k+i < n; i++ {
		xs[k+i] = desim.Time(2 * (i + 1))
	}
	return xs
}

// lomutoKiller returns n distinct values on which selectNth(xs, k,
// budget) spends every round of its budget without finishing. It is
// McIlroy's adversary, replayed through selectNth's own sample stream
// and narrow. Every element starts as "gas": a value above any handed
// out so far, in position order. Before each round, the first two of the
// three elements sampled for the pivot get the two smallest values not
// yet handed out. The median of three is then the range's
// second-smallest element, so the partition splits off one element (none
// when the first two samples coincide) and the lopsided equal pass
// gathers nothing. New values only ever exceed the values they were
// compared with as gas, so every comparison made before their
// assignment keeps its outcome, and selectNth on the result takes
// exactly the replayed path. Values carry their starting position in the
// low 32 bits, which is how the result is read back.
func lomutoKiller(n, k, budget int) []desim.Time {
	const gas, pos = desim.Time(1) << 52, desim.Time(1)<<32 - 1
	xs := make([]desim.Time, n)
	for i := range xs {
		xs[i] = gas | desim.Time(i)
	}
	next := desim.Time(1)
	lo, hi, done := 0, n, false
	r := sampleSeed
	for round := 0; round < budget && hi-lo > 12 && !done; round++ {
		a, b, c := sample(&r, lo, hi), sample(&r, lo, hi), sample(&r, lo, hi)
		xs[b] = (next+1)<<32 | xs[b]&pos
		xs[a] = next<<32 | xs[a]&pos
		next += 2
		lo, hi, done = narrow(xs, lo, hi, k, median3(xs, a, b, c))
	}
	in := make([]desim.Time, n)
	for _, x := range xs {
		in[x&pos] = x
	}
	return in
}

// kernelLatencies is the latency multiset a kernel node produces: a
// packet created at every multiple of the interval is delivered at the
// next 100 ms superframe boundary, and ~2% wait one to three whole
// superframes more. With the interval drawn up to 250 ms the values are
// few and heavily repeated.
func kernelLatencies(rng *rand.Rand, n int) []desim.Time {
	const sf = 100 * desim.Millisecond
	interval := desim.Millisecond + desim.Time(rng.Int63n(int64(250*desim.Millisecond)))
	xs := make([]desim.Time, n)
	for k := range xs {
		created := desim.Time(k+1) * interval
		xs[k] = (created+sf-1)/sf*sf - created
		if rng.Intn(50) == 0 {
			xs[k] += desim.Time(1+rng.Intn(3)) * sf
		}
	}
	return xs
}

// checkP50P99 runs p50p99 on xs and fails unless its picks equal
// slices.Sort followed by indexing and xs is left a permutation of its
// input.
func checkP50P99(t *testing.T, name string, xs []desim.Time) {
	t.Helper()
	n := len(xs)
	want := slices.Clone(xs)
	slices.Sort(want)
	p50, p99 := p50p99(xs)
	if p50 != want[n/2] || p99 != want[n*99/100] {
		t.Fatalf("%s n=%d: p50, p99 = %d, %d; sort gives %d, %d",
			name, n, p50, p99, want[n/2], want[n*99/100])
	}
	slices.Sort(xs)
	if !slices.Equal(xs, want) {
		t.Fatalf("%s n=%d: selection lost or duplicated elements", name, n)
	}
}

// TestP50P99MatchesSort: for every n up to 2100, for n = 5,000, 10,007
// and 60,000 (a top-m heap of 50–600 slots), and input shapes that
// stress the heap scan and a partition-based selection, the p50 and p99
// picks equal slices.Sort followed by indexing.
func TestP50P99MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		gen  func(n int) []desim.Time
	}{
		{"random", func(n int) []desim.Time {
			xs := make([]desim.Time, n)
			for i := range xs {
				xs[i] = desim.Time(rng.Int63())
			}
			return xs
		}},
		{"all-equal", func(n int) []desim.Time {
			xs := make([]desim.Time, n)
			for i := range xs {
				xs[i] = 250 * desim.Millisecond
			}
			return xs
		}},
		{"many-duplicates", func(n int) []desim.Time {
			xs := make([]desim.Time, n)
			for i := range xs {
				xs[i] = desim.Time(rng.Intn(4)) * desim.Millisecond
			}
			return xs
		}},
		{"sorted", func(n int) []desim.Time {
			xs := make([]desim.Time, n)
			for i := range xs {
				xs[i] = desim.Time(i)
			}
			return xs
		}},
		{"reversed", func(n int) []desim.Time {
			xs := make([]desim.Time, n)
			for i := range xs {
				xs[i] = desim.Time(n - i)
			}
			return xs
		}},
		{"organ-pipe", func(n int) []desim.Time {
			xs := make([]desim.Time, n)
			for i := range xs {
				xs[i] = desim.Time(min(i, n-1-i))
			}
			return xs
		}},
		{"kernel", func(n int) []desim.Time { return kernelLatencies(rng, n) }},
		{"top-tie", func(n int) []desim.Time {
			// The m+1 largest values are equal, so one value fills index
			// n*99/100 and the slot just below the top-m heap.
			xs := make([]desim.Time, n)
			m := n - n*99/100
			for i := range xs {
				xs[i] = desim.Time(rng.Intn(1000))
				if i <= m {
					xs[i] = 1000
				}
			}
			rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			return xs
		}},
		{"median-of-3-killer", medianOf3Killer},
		{"lomuto-killer", func(n int) []desim.Time { return lomutoKiller(n, n/2, 2*bits.Len(uint(n))) }},
	}
	for _, sh := range shapes {
		for n := 1; n <= 2100; n++ {
			checkP50P99(t, sh.name, sh.gen(n))
		}
		for _, n := range []int{5000, 10007, 60000} {
			checkP50P99(t, sh.name, sh.gen(n))
		}
	}
}

// TestSelectNthBudgetFallback: lomutoKiller's input spends the whole
// depth budget, so the answer comes from the slices.Sort fallback — and
// is still exact — while a random input of the same size finishes with
// budget to spare.
func TestSelectNthBudgetFallback(t *testing.T) {
	const n, k = 2100, 2100 / 2
	budget := 2 * bits.Len(uint(n))
	xs := lomutoKiller(n, k, budget)
	want := slices.Clone(xs)
	slices.Sort(want)
	if left := selectNth(xs, k, budget); left != 0 {
		t.Fatalf("killer input left %d of %d rounds unspent; want the fallback", left, budget)
	}
	if xs[k] != want[k] {
		t.Fatalf("fallback selected %d, want %d", xs[k], want[k])
	}
	rng := rand.New(rand.NewSource(2))
	for i := range xs {
		xs[i] = desim.Time(rng.Int63())
	}
	if left := selectNth(xs, k, budget); left == 0 {
		t.Fatal("random input spent the whole budget")
	}
}

// fuzzAlphabet holds the values FuzzP50P99 draws from: a few, so ties
// are common, including both ends of the int64 range.
var fuzzAlphabet = [16]desim.Time{
	math.MinInt64, -desim.Second, -1, 0, 1, 2, 3, 5,
	8, 100, desim.Millisecond, 100 * desim.Millisecond, desim.Second, 600 * desim.Second, math.MaxInt64 - 1, math.MaxInt64,
}

// FuzzP50P99: on any input drawn from fuzzAlphabet, the picks equal
// slices.Sort followed by indexing and the output is a permutation of
// the input. Each byte appends the value its low nibble names, repeated
// 1 + its high nibble times, so runs of equal keys are long.
func FuzzP50P99(f *testing.F) {
	f.Add([]byte{0x03})
	f.Add([]byte{0xf3, 0xf3, 0xf3, 0xf4, 0x05})
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f})
	f.Add([]byte{0xff, 0xf0, 0xff, 0xf0, 0xff, 0xf0, 0xff, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x0b})
	f.Add([]byte("a kernel node's latencies take a handful of values, repeated"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []desim.Time
		for _, b := range data {
			for r := 0; r <= int(b>>4); r++ {
				xs = append(xs, fuzzAlphabet[b&15])
			}
		}
		if len(xs) == 0 {
			return
		}
		checkP50P99(t, "fuzz", xs)
	})
}

// BenchmarkP50P99 measures both percentile picks over one node's latency
// samples: the kernel shape (a 60 s and a 600 s node), all equal, and
// three distinct values. The last two catch a partition that lost its
// equal-keys pass. The copy restores the unselected order each op.
func BenchmarkP50P99(b *testing.B) {
	shapes := []struct {
		name string
		gen  func(rng *rand.Rand, n int) []desim.Time
	}{
		{"kernel", kernelLatencies},
		{"equal", func(_ *rand.Rand, n int) []desim.Time {
			xs := make([]desim.Time, n)
			for i := range xs {
				xs[i] = 37 * desim.Millisecond
			}
			return xs
		}},
		{"few", func(rng *rand.Rand, n int) []desim.Time {
			xs := make([]desim.Time, n)
			for i := range xs {
				xs[i] = desim.Time(1+rng.Intn(3)) * 10 * desim.Millisecond
			}
			return xs
		}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			for _, n := range []int{518, 5000} {
				b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
					src := sh.gen(rand.New(rand.NewSource(1)), n)
					xs := make([]desim.Time, n)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(xs, src)
						p50p99(xs)
					}
				})
			}
		})
	}
}
