package iob_test

import (
	"testing"

	"wiban/internal/figures"
)

// TestFig3MarkersMatchPaperRegions runs the claims-table entries for
// Fig. 3's device markers, which hold their bounds.
func TestFig3MarkersMatchPaperRegions(t *testing.T) {
	if _, err := figures.TableClaims("fig3-patch", "fig3-ring", "fig3-tracker", "fig3-audio", "fig3-video"); err != nil {
		t.Error(err)
	}
}
