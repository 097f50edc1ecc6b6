package survey

// A fit-quality measure that only these tests take; no binary links it.

import "math"

// RMSLogError reports the fit quality: root-mean-square error of
// log10(P_fit/P_observed) over the survey. A value near 0.3 means the
// trend is typically within 2× of observations — the scatter Fig. 3's
// survey shows.
func (p PowerLaw) RMSLogError(pts []Point) float64 {
	var n, s float64
	for _, pt := range pts {
		if pt.Rate <= 0 || pt.Power <= 0 {
			continue
		}
		d := math.Log10(float64(p.At(pt.Rate))) - math.Log10(float64(pt.Power))
		s += d * d
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(s / n)
}
