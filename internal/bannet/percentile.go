package bannet

import (
	"math/bits"
	"slices"

	"wiban/internal/desim"
)

// p50p99 returns the elements at indices n/2 and n*99/100 of xs sorted
// ascending (n = len(xs) > 0), reordering xs in place and allocating
// nothing. The picks are exactly those of slices.Sort followed by
// indexing, found in two steps:
//
//   - p99: with m = n − n*99/100 ≥ 1, xs[:m] becomes a min-heap of the m
//     largest elements in one scan (a later element strictly greater
//     than the root replaces it). The root is then the element a sort
//     puts at n*99/100, and xs[m:] holds the n − m smallest elements.
//   - p50: selectNth picks index n/2 among those n − m smallest. For
//     n ≤ 2 the two indices coincide and p50 = p99.
func p50p99(xs []desim.Time) (p50, p99 desim.Time) {
	n := len(xs)
	m := n - n*99/100
	heapify(xs[:m])
	for j := m; j < n; j++ {
		if x := xs[j]; x > xs[0] {
			xs[j], xs[0] = xs[0], x
			siftDown(xs[:m], 0)
		}
	}
	p99 = xs[0]
	i50 := n / 2
	if i50 == n-m {
		return p99, p99
	}
	low := xs[m:]
	selectNth(low, i50, 2*bits.Len(uint(n)))
	return low[i50], p99
}

// heapify orders h as a min-heap.
func heapify(h []desim.Time) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown restores the min-heap order below index i.
func siftDown(h []desim.Time, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[c] >= x {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// selectNth reorders xs so that xs[k] holds the element slices.Sort would
// put there, with no element after it smaller and none before it larger.
// It is an introselect: each round pivots on the median of three
// elements drawn at pseudo-random positions of the range that holds k
// (fixed positions keep hitting the same phase of a node's periodic
// latencies) and narrows the range to one side. Once the range is small
// or budget rounds are spent, slices.Sort finishes it, so the worst case
// stays O(n log n) and the result stays exact. It returns the unspent
// budget.
func selectNth(xs []desim.Time, k, budget int) int {
	lo, hi := 0, len(xs)
	r := sampleSeed
	for hi-lo > 12 && budget > 0 {
		budget--
		m := median3(xs, sample(&r, lo, hi), sample(&r, lo, hi), sample(&r, lo, hi))
		var done bool
		if lo, hi, done = narrow(xs, lo, hi, k, m); done {
			return budget
		}
	}
	slices.Sort(xs[lo:hi])
	return budget
}

// sampleSeed starts the xorshift stream selectNth draws pivot samples
// from; the positions drawn change no pick, only the work done.
const sampleSeed uint64 = 0x9e3779b97f4a7c15

// sample advances the xorshift state r and returns an index in [lo, hi).
func sample(r *uint64, lo, hi int) int {
	x := *r
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = x
	i, _ := bits.Mul64(x, uint64(hi-lo))
	return lo + int(i)
}

// narrow runs one selectNth round on xs[lo:hi], which holds index k,
// around the pivot xs[m]. It moves the pivot to the front and runs a
// branch-free Lomuto partition: every element is swapped forward, and
// the comparison with the pivot only decides whether the write index
// advances. When the split comes out lopsided (under 1/8 of the range
// below the pivot, as a run of duplicates makes it), a second
// branch-free pass gathers the keys equal to the pivot. It returns the
// part of the range that holds k, or done when k landed on the pivot or
// among its equals.
func narrow(xs []desim.Time, lo, hi, k, m int) (nlo, nhi int, done bool) {
	xs[lo], xs[m] = xs[m], xs[lo]
	p := xs[lo]
	// xs[lo+1:i] < p ≤ xs[i:j].
	i := lo + 1
	for j := lo + 1; j < hi; j++ {
		x := xs[j]
		xs[j] = xs[i]
		xs[i] = x
		i += less(x, p)
	}
	i--
	xs[lo], xs[i] = xs[i], p
	// Now xs[lo:i] < p = xs[i] ≤ xs[i+1:hi].
	switch {
	case k < i:
		return lo, i, false
	case k == i:
		return lo, hi, true
	case i-lo >= (hi-lo)/8:
		return i + 1, hi, false
	}
	// xs[i+1:e] = p < xs[e:j].
	e := i + 1
	for j := i + 1; j < hi; j++ {
		x := xs[j]
		xs[j] = xs[e]
		xs[e] = x
		e += less(p, x) ^ 1
	}
	return e, hi, k < e
}

// less returns 1 if a < b and 0 otherwise; the compiler emits a SETcc
// for it, not a branch.
func less(a, b desim.Time) int {
	var r int
	if a < b {
		r = 1
	}
	return r
}

// median3 returns whichever of the indices a, b, c holds the median of
// their three elements.
func median3(xs []desim.Time, a, b, c int) int {
	if xs[b] < xs[a] {
		a, b = b, a
	}
	if xs[c] >= xs[b] {
		return b
	}
	if xs[c] > xs[a] {
		return c
	}
	return a
}
