package channel

import (
	"math"
	"testing"
	"testing/quick"

	"wiban/internal/units"
)

func TestMQSCouplingFarFieldSlope(t *testing.T) {
	m := DefaultMQSImplant()
	// For d ≫ coil radius, k ∝ 1/d³ so k² (power) falls 60 dB/decade.
	g10 := m.GainDB(10 * units.Centimeter)
	g100 := m.GainDB(1 * units.Meter)
	slope := g10 - g100
	if math.Abs(slope-60) > 2 {
		t.Errorf("MQS far slope = %.1f dB/decade, want ≈ 60", slope)
	}
}

func TestMQSCouplingMonotone(t *testing.T) {
	m := DefaultMQSImplant()
	f := func(a, b uint16) bool {
		da := units.Distance(a) * units.Millimeter
		db := units.Distance(b) * units.Millimeter
		if da > db {
			da, db = db, da
		}
		return m.CouplingCoefficient(da) >= m.CouplingCoefficient(db)-1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMQSCouplingBounds(t *testing.T) {
	m := DefaultMQSImplant()
	if k := m.CouplingCoefficient(0); k <= 0 || k > 1 {
		t.Errorf("contact coupling %v outside (0,1]", k)
	}
	if k := m.CouplingCoefficient(-5 * units.Centimeter); k != m.CouplingCoefficient(0) {
		t.Error("negative distance should clamp to contact")
	}
	bad := &MQSCoil{}
	if bad.CouplingCoefficient(units.Centimeter) != 0 {
		t.Error("zero-radius coil should not couple")
	}
	if !math.IsInf(bad.GainDB(units.Centimeter), -1) {
		t.Error("zero coupling should be -Inf dB")
	}
}

func TestMQSBeatsRFThroughTissue(t *testing.T) {
	// The future-work claim quantified: for a 5 cm-deep implant, the MQS
	// link's gain must exceed the 2.4 GHz RF gain (Friis + 3 dB/cm tissue
	// absorption) by a wide margin.
	mqs := DefaultMQSImplant()
	rf := DefaultBLEPath()
	depth := 5 * units.Centimeter
	gm := mqs.GainDB(depth)
	gr := rf.GainThroughTissueDB(depth, depth)
	if gm-gr < 10 {
		t.Errorf("MQS %.1f dB vs RF-through-tissue %.1f dB: want ≥ 10 dB advantage", gm, gr)
	}
	// And the MQS link must actually close a realistic budget: better
	// than -70 dB at 5 cm.
	if gm < -70 {
		t.Errorf("MQS gain at 5 cm = %.1f dB, want ≥ -70 dB", gm)
	}
}

func TestTissueAbsorptionScalesWithDepth(t *testing.T) {
	rf := DefaultBLEPath()
	shallow := rf.GainThroughTissueDB(10*units.Centimeter, 1*units.Centimeter)
	deep := rf.GainThroughTissueDB(10*units.Centimeter, 8*units.Centimeter)
	if d := shallow - deep; math.Abs(d-7*TissueLossDBPerCm) > 1e-9 {
		t.Errorf("7 cm extra tissue costs %.1f dB, want %.1f", d, 7*TissueLossDBPerCm)
	}
	// Depth clamps to the total path.
	a := rf.GainThroughTissueDB(5*units.Centimeter, 5*units.Centimeter)
	b := rf.GainThroughTissueDB(5*units.Centimeter, 50*units.Centimeter)
	if a != b {
		t.Error("depth beyond total should clamp")
	}
}

func TestMQSRegime(t *testing.T) {
	m := DefaultMQSImplant()
	if !m.InMQSRegime() {
		t.Error("1 MHz should be quasistatic")
	}
	m.Freq = 100 * units.Megahertz
	if m.InMQSRegime() {
		t.Error("100 MHz should not be quasistatic")
	}
}

func TestMQSGainCapsAtUnity(t *testing.T) {
	// At contact with high-Q coils, k²QQ would exceed 1; efficiency must
	// cap at 0 dB minus margin.
	m := DefaultMQSImplant()
	if g := m.GainDB(0); g > -m.LinkMarginDB+1e-9 {
		t.Errorf("contact gain %.1f dB exceeds the physical cap", g)
	}
}
