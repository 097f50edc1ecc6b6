package fleet

import (
	"math"
	"slices"
	"sort"
)

// DefaultMaxBins is the centroid budget of a StreamDist. Five
// distributions at this budget cost a few tens of kilobytes — constant in
// fleet size.
const DefaultMaxBins = 256

// StreamDist is the bounded-memory summary of an unbounded sample stream:
// exact count, min, max and mean (the mean is summed in insertion order,
// matching the batch path's wearer-index-order summation) and percentile
// estimates from a streaming histogram in the style of Ben-Haim & Tom-Tov
// (JMLR 2010).
//
// The histogram keeps at most maxBins weighted centroids. A new value
// lands on its exact centroid if one exists, otherwise it opens a new
// centroid and, over budget, the two closest-together adjacent centroids
// merge (ties break on the lower index). Every step is a pure function of
// the insertion sequence, so fleet runs stay byte-reproducible across
// worker counts. While fewer than maxBins distinct values have been seen
// no merge ever happens and Quantile reproduces the batch sorted-sample
// convention (index ⌊n·p/100⌋) exactly; beyond that, a percentile is the
// centroid covering the target rank, with error bounded by the local
// centroid spacing.
//
// Once the budget is full, gaps caches every adjacent gap as an
// order-preserving integer key (see gapKey), so an over-budget Add finds
// the closest pair without recomputing the gaps and rewrites only the
// centroids and gaps between the insert position and the merged pair.
// The cache holds exactly the keys of the differences a full rescan
// would compute, and the scan keeps the float comparison's answer (NaN
// gaps included), so the centroids stay a pure function of the
// insertion sequence, bit for bit.
//
// NaN samples are counted separately and excluded from every statistic
// (see Add): series gaps surface as NaN and must not poison the sum/mean
// or break the sorted-centroid invariant sort.Search relies on.
type StreamDist struct {
	n        int64
	nans     int64
	sum      float64
	min, max float64
	bins     []centroid
	gaps     []int64 // gapKey(bins[j+1].c - bins[j].c), from the first merge on
	maxBins  int
}

// centroid is a weighted cluster of nearby samples.
type centroid struct {
	c float64 // weighted center
	w int64   // samples absorbed
}

// nanGap is the key of a NaN gap: above every other key, so the scan
// never picks one unless it is the first gap (see closest).
const nanGap = math.MaxInt64

// gapKey maps a gap to an int64 that orders as the float does: -0 and +0
// share a key, and NaN gets nanGap.
func gapKey(g float64) int64 {
	if g != g {
		return nanGap
	}
	k := int64(math.Float64bits(g) &^ (1 << 63))
	if g < 0 {
		return -k
	}
	return k
}

// NewStreamDist returns an accumulator keeping at most maxBins centroids
// (0 means DefaultMaxBins).
func NewStreamDist(maxBins int) *StreamDist {
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	return &StreamDist{maxBins: maxBins, bins: make([]centroid, 0, maxBins)}
}

// Add absorbs one sample. NaN is a gap marker, not a value: it bumps the
// NaN count and leaves n, sum, min/max and the centroids untouched. (A NaN
// admitted here would make the mean NaN forever and, because every
// comparison against NaN is false, land at an arbitrary sort.Search
// index — silently breaking the sorted-centroid invariant.)
func (d *StreamDist) Add(x float64) {
	if math.IsNaN(x) {
		d.nans++
		return
	}
	if d.n == 0 || x < d.min {
		d.min = x
	}
	if d.n == 0 || x > d.max {
		d.max = x
	}
	d.n++
	d.sum += x

	i := sort.Search(len(d.bins), func(i int) bool { return d.bins[i].c >= x })
	if i < len(d.bins) && d.bins[i].c == x {
		d.bins[i].w++
		return
	}
	v := centroid{c: x, w: 1}
	if len(d.bins) < d.maxBins {
		d.bins = slices.Insert(d.bins, i, v)
		return
	}
	d.insertMerge(i, v)
}

// insertMerge is Add over budget: it inserts v at i and merges the
// closest adjacent pair of the result in one pass. The array with v
// inserted — virtual below — is never built: positions of it below i are
// bins', i is v, and above i they are bins' shifted by one.
func (d *StreamDist) insertMerge(i int, v centroid) {
	b := d.bins
	n := len(b)
	if len(d.gaps) != n-1 {
		d.gaps = make([]int64, n-1)
		for j := range d.gaps {
			d.gaps[j] = gapKey(b[j+1].c - b[j].c)
		}
	}
	g := d.gaps
	best := d.closest(i, v.c)

	// Write the merged array over bins. Between the merged centroid and v
	// the centroids, and the gaps between them, shift one place toward
	// the merged pair; bins[lo:hi+1] is all that changes. The gaps that
	// touch m or v may be left stale by the shift; the loop after the
	// switch recomputes exactly those.
	lo, hi := best, best
	switch {
	case best == i-1:
		b[best] = merged(b[best], v)
	case best == i:
		b[best] = merged(v, b[best])
	case best < i:
		m := merged(b[best], b[best+1])
		hi = i - 1
		copy(b[best+1:hi], b[best+2:i])
		copy(g[best:i-2], g[best+1:i-1])
		b[lo], b[hi] = m, v
	default:
		m := merged(b[best-1], b[best])
		lo = i
		copy(b[i+1:best], b[i:best-1])
		copy(g[i+1:best], g[i:best-1])
		b[lo], b[hi] = v, m
	}
	for _, j := range [4]int{lo - 1, lo, hi - 1, hi} {
		if j >= 0 && j < n-1 {
			g[j] = gapKey(b[j+1].c - b[j].c)
		}
	}
}

// merged is the centroid of p and q together.
func merged(p, q centroid) centroid {
	w := p.w + q.w
	return centroid{c: (p.c*float64(p.w) + q.c*float64(q.w)) / float64(w), w: w}
}

// closest returns the index of the closest adjacent pair of the virtual
// array (x inserted at i): the first smallest gap, as the float scan
// `if gap < bestGap` from gap 0 finds it. That scan never leaves a NaN
// first gap, and never picks a later NaN one; nanGap reproduces both.
func (d *StreamDist) closest(i int, x float64) int {
	b, g := d.bins, d.gaps
	n := len(b)
	left, right := int64(nanGap), int64(nanGap) // the gaps either side of x
	if i > 0 {
		left = gapKey(x - b[i-1].c)
	}
	if i < n {
		right = gapKey(b[i].c - x)
	}
	first := right
	switch {
	case i == 1:
		first = left
	case i > 1:
		first = g[0]
	}
	if first == nanGap {
		return 0
	}
	// Candidates in virtual-index order; a strict < keeps the lowest
	// index on ties.
	best, bestKey := 0, int64(nanGap)
	if i > 1 {
		best, bestKey = firstMin(g[:i-1])
	}
	if i > 0 && left < bestKey {
		best, bestKey = i-1, left
	}
	if i < n && right < bestKey {
		best, bestKey = i, right
	}
	if i < n-1 {
		if j, k := firstMin(g[i:]); k < bestKey {
			best = i + 1 + j
		}
	}
	return best
}

// firstMin returns the index and value of the first smallest key of a
// non-empty g. It takes the minimum of each run of eight keys, which has
// no branch, and keeps the first run whose minimum beats the best so
// far, which is seldom taken; the index is then found inside that run.
func firstMin(g []int64) (int, int64) {
	m, at := g[0], 0
	j := 0
	for ; j+8 <= len(g); j += 8 {
		r := g[j : j+8 : j+8]
		if k := min(min(r[0], r[1], r[2], r[3]), min(r[4], r[5], r[6], r[7])); k < m {
			m, at = k, j
		}
	}
	for ; j < len(g); j++ {
		if g[j] < m {
			m, at = g[j], j
		}
	}
	for g[at] != m {
		at++
	}
	return at, m
}

// Quantile returns the estimated pct-th percentile under the batch
// convention: the value at rank ⌊n·pct/100⌋ of the sorted sample,
// answered with the centroid whose weight span covers that rank.
func (d *StreamDist) Quantile(pct int) float64 {
	if d.n == 0 {
		return 0
	}
	rank := d.n * int64(pct) / 100
	var cum int64
	for _, b := range d.bins {
		cum += b.w
		if rank < cum {
			return b.c
		}
	}
	return d.bins[len(d.bins)-1].c
}

// Dist renders the accumulated stream as the Report's summary type.
func (d *StreamDist) Dist() Dist {
	if d.n == 0 {
		return Dist{}
	}
	return Dist{
		N:    int(d.n),
		Min:  d.min,
		Max:  d.max,
		Mean: d.sum / float64(d.n),
		P10:  d.Quantile(10),
		P50:  d.Quantile(50),
		P90:  d.Quantile(90),
		P99:  d.Quantile(99),
	}
}
