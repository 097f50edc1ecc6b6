package radio_test

import (
	"testing"

	"wiban/internal/figures"
)

// TestPaperClaimRateAndPowerRatios runs the claims-table entries for
// the §I goodput and energy-per-bit ratios, which hold their bounds.
func TestPaperClaimRateAndPowerRatios(t *testing.T) {
	if _, err := figures.TableClaims("goodput-10x", "energy-100x", "energy-100x-ble5"); err != nil {
		t.Error(err)
	}
}
