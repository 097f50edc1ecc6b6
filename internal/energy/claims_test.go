package energy_test

import (
	"testing"

	"wiban/internal/figures"
)

// TestHarvesterEnvelopeMatchesPaper runs the claims-table entries for
// §V's indoor harvesting envelope, which holds their bounds.
func TestHarvesterEnvelopeMatchesPaper(t *testing.T) {
	if _, err := figures.TableClaims("pv-min", "pv-max", "pv-30uw", "pv-16mw"); err != nil {
		t.Error(err)
	}
}
