package phy

import (
	"testing"

	"wiban/internal/units"
)

func TestCanonicalLinksClose(t *testing.T) {
	// figures.TestPaperClaims closes the Wi-R and BLE links across the
	// body. The implant link closes at 5 cm depth; by 50 cm (well outside the
	// body) the 1/d³ coupling collapse has killed it — MQS shares the
	// EQS personal-bubble property.
	if l := MQSLink(5 * units.Centimeter); !l.Closes(1e-6) {
		t.Errorf("MQS link at 5 cm: BER %g, should close", l.BER())
	}
	if l := MQSLink(50 * units.Centimeter); l.Closes(1e-6) {
		t.Errorf("MQS link at 50 cm closes (BER %g) — coupling should have collapsed", l.BER())
	}
}

func TestCanonicalLinkPERIsUsable(t *testing.T) {
	// PER of a 1 kB packet on the nominal links must be small enough for
	// the simulator's retry budget (< 5%) — this is where bannet's PER
	// values come from.
	for _, l := range []*Link{WiRLink(1.5 * units.Meter), BLELink(1.5 * units.Meter)} {
		per := l.PER(1024 * 8)
		if per > 0.05 {
			t.Errorf("%s: PER %g too high for ARQ budget", l.Name, per)
		}
	}
}

func TestLinkDegradesWithPath(t *testing.T) {
	near := WiRLink(0.5 * units.Meter)
	far := WiRLink(2 * units.Meter)
	if near.BER() > far.BER() {
		t.Error("longer body path should not improve BER")
	}
	if nb, fb := BLELink(0.5*units.Meter).BER(), BLELink(5*units.Meter).BER(); nb > fb {
		t.Error("longer RF path should not improve BER")
	}
}
