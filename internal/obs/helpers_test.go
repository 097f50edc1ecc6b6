package obs

// Reads that only these tests make; no binary links them.

// Count reports total observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n + h.inf.Load()
}
