package bannet

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"wiban/internal/units"
)

// medianOf3Killer is Musser's adversarial input for median-of-three
// quicksort: with k = n/2, the odd values 1, 3, … interleaved with
// k+2, k+4, …, then the even values 2, 4, …, 2k. Each partition splits
// off only a couple of elements, so a selection runs out of its depth
// budget (for even k it is a permutation of 1…n).
func medianOf3Killer(n int) []units.Duration {
	k := n / 2
	xs := make([]units.Duration, n)
	for i := 0; i < k; i += 2 {
		xs[i] = units.Duration(i + 1)
		if i+1 < k {
			xs[i+1] = units.Duration(k + i + 2)
		}
	}
	for i := 0; k+i < n; i++ {
		xs[k+i] = units.Duration(2 * (i + 1))
	}
	return xs
}

// TestP50P99MatchesSort: for every n up to 2100 and input shapes that
// stress a partition-based selection, the selected p50 and p99 are
// bit-equal to slices.Sort followed by indexing.
func TestP50P99MatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		gen  func(n int) []units.Duration
	}{
		{"random", func(n int) []units.Duration {
			xs := make([]units.Duration, n)
			for i := range xs {
				xs[i] = units.Duration(rng.Float64())
			}
			return xs
		}},
		{"all-equal", func(n int) []units.Duration {
			xs := make([]units.Duration, n)
			for i := range xs {
				xs[i] = 0.25
			}
			return xs
		}},
		{"many-duplicates", func(n int) []units.Duration {
			xs := make([]units.Duration, n)
			for i := range xs {
				xs[i] = units.Duration(rng.Intn(4)) * 1e-3
			}
			return xs
		}},
		{"sorted", func(n int) []units.Duration {
			xs := make([]units.Duration, n)
			for i := range xs {
				xs[i] = units.Duration(i)
			}
			return xs
		}},
		{"reversed", func(n int) []units.Duration {
			xs := make([]units.Duration, n)
			for i := range xs {
				xs[i] = units.Duration(n - i)
			}
			return xs
		}},
		{"organ-pipe", func(n int) []units.Duration {
			xs := make([]units.Duration, n)
			for i := range xs {
				xs[i] = units.Duration(min(i, n-1-i))
			}
			return xs
		}},
		{"median-of-3-killer", medianOf3Killer},
	}
	for _, sh := range shapes {
		for n := 1; n <= 2100; n++ {
			xs := sh.gen(n)
			want := slices.Clone(xs)
			slices.Sort(want)
			p50, p99 := p50p99(xs)
			if math.Float64bits(float64(p50)) != math.Float64bits(float64(want[n/2])) ||
				math.Float64bits(float64(p99)) != math.Float64bits(float64(want[n*99/100])) {
				t.Fatalf("%s n=%d: p50, p99 = %v, %v; sort gives %v, %v",
					sh.name, n, p50, p99, want[n/2], want[n*99/100])
			}
			slices.Sort(xs)
			if !slices.Equal(xs, want) {
				t.Fatalf("%s n=%d: selection lost or duplicated elements", sh.name, n)
			}
		}
	}
}

// TestSelectNthBudgetFallback: the killer input spends the whole depth
// budget, so the answer comes from the slices.Sort fallback — and is
// still exact — while a random input of the same size finishes with
// budget to spare.
func TestSelectNthBudgetFallback(t *testing.T) {
	const n = 2100
	budget := 2 * bits.Len(uint(n))
	xs := medianOf3Killer(n)
	want := slices.Clone(xs)
	slices.Sort(want)
	if left := selectNth(xs, n*99/100, budget); left != 0 {
		t.Fatalf("killer input left %d of %d partitions unspent; want the fallback", left, budget)
	}
	if xs[n*99/100] != want[n*99/100] {
		t.Fatalf("fallback selected %v, want %v", xs[n*99/100], want[n*99/100])
	}
	rng := rand.New(rand.NewSource(2))
	for i := range xs {
		xs[i] = units.Duration(rng.Float64())
	}
	if left := selectNth(xs, n*99/100, budget); left == 0 {
		t.Fatal("random input spent the whole budget")
	}
}

// BenchmarkP50P99 measures both percentile picks over one node's worth
// of latency samples (the copy restores the unselected order each op).
func BenchmarkP50P99(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]units.Duration, 2000)
	for i := range src {
		src[i] = units.Duration(rng.ExpFloat64() * 1e-3)
	}
	xs := make([]units.Duration, len(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		p50p99(xs)
	}
}
