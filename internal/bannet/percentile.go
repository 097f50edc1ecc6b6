package bannet

import (
	"cmp"
	"math/bits"
	"slices"

	"wiban/internal/units"
)

// p50p99 returns the elements at indices n/2 and n*99/100 of xs sorted
// ascending (n = len(xs) > 0), reordering xs in place. Two selections
// stand in for the full sort: the p99 pick leaves the n*99/100 smallest
// elements in front of it, and the median is selected among those,
// spending what depth budget the p99 pick left. A selection places at index k the element sorting the multiset would
// place there, so the picks are exactly those of slices.Sort followed by
// indexing.
func p50p99(xs []units.Duration) (p50, p99 units.Duration) {
	n := len(xs)
	i50, i99 := n/2, n*99/100
	budget := selectNth(xs, i99, 2*bits.Len(uint(n)))
	if i50 < i99 {
		selectNth(xs[:i99], i50, budget)
	}
	return xs[i50], xs[i99]
}

// selectNth reorders xs so that xs[k] holds the element slices.Sort would
// put there, with no element after it ordered before it and none before
// it ordered after. It is an introselect: Hoare partitions around a
// median-of-three pivot narrow the range that holds k, and once the range
// is small or budget partitions are spent, slices.Sort finishes the range
// — so the worst case stays O(n log n) and the result stays exact. It
// returns the unspent budget. Ordering is cmp.Less, the order
// slices.Sort uses.
func selectNth(xs []units.Duration, k, budget int) int {
	lo, hi := 0, len(xs)
	for hi-lo > 12 && budget > 0 {
		budget--
		p := median3(xs[lo], xs[lo+(hi-lo)/2], xs[hi-1])
		// p is an element of [lo, hi), so both scans stop inside it.
		i, j := lo-1, hi
		for {
			for i++; cmp.Less(xs[i], p); i++ {
			}
			for j--; cmp.Less(p, xs[j]); j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		// Now xs[lo:j+1] ≤ p ≤ xs[j+1:hi]; keep the side holding k.
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	slices.Sort(xs[lo:hi])
	return budget
}

// median3 returns the median of three values under cmp.Less.
func median3(a, b, c units.Duration) units.Duration {
	if cmp.Less(b, a) {
		a, b = b, a
	}
	if !cmp.Less(c, b) {
		return b
	}
	if cmp.Less(a, c) {
		return c
	}
	return a
}
