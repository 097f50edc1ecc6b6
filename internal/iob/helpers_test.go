package iob

// Renderings that only these tests use; no binary links them.

import "fmt"

// String renders the breakdown.
func (b PowerBreakdown) String() string {
	return fmt.Sprintf("sense %v + compute %v + comm %v = %v",
		b.Sense, b.Compute, b.Comm, b.Total())
}
