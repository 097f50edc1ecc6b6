package energy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wiban/internal/units"
)

func TestFig3BatteryEnergy(t *testing.T) {
	b := Fig3Battery()
	// 1000 mAh at 3 V = 10.8 kJ rated.
	if got := float64(b.RatedEnergy()); math.Abs(got-10800) > 1 {
		t.Errorf("rated energy = %.0f J, want 10800 J", got)
	}
	if b.UsableEnergy() >= b.RatedEnergy() {
		t.Error("usable energy should be derated below rated")
	}
}

func TestLifetimeKnownPoints(t *testing.T) {
	b := Fig3Battery()
	tests := []struct {
		load     units.Power
		min, max units.Duration // acceptance band
	}{
		// ~290 µW → right at a year (with derating + self-discharge).
		{290 * units.Microwatt, 320 * units.Day, 400 * units.Day},
		// 10 mW-class conventional node → days.
		{10 * units.Milliwatt, 8 * units.Day, 14 * units.Day},
		// 100 mW video node → about a day.
		{100 * units.Milliwatt, 0.8 * units.Day, 1.5 * units.Day},
		// 1 µW node → shelf-life-capped at 10 years.
		{1 * units.Microwatt, 10 * units.Year, 10 * units.Year},
	}
	for _, tt := range tests {
		life := b.Lifetime(tt.load)
		if life < tt.min || life > tt.max {
			t.Errorf("lifetime(%v) = %v, want in [%v, %v]", tt.load, life, tt.min, tt.max)
		}
	}
}

func TestLifetimeMonotoneDecreasing(t *testing.T) {
	b := Fig3Battery()
	f := func(a, c uint32) bool {
		pa := units.Power(a%1000000) * units.Microwatt
		pc := units.Power(c%1000000) * units.Microwatt
		if pa > pc {
			pa, pc = pc, pa
		}
		return b.Lifetime(pa) >= b.Lifetime(pc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerpetualLoadConsistency(t *testing.T) {
	for _, b := range []*Battery{Fig3Battery(), CR2032(), LiPo(300)} {
		p := b.PerpetualLoad()
		if p <= 0 {
			t.Fatalf("%s: non-positive perpetual load %v", b.Name, p)
		}
		if !b.Perpetual(p * 0.999) {
			t.Errorf("%s: load just under PerpetualLoad should be perpetual", b.Name)
		}
		if b.Perpetual(p * 1.01) {
			t.Errorf("%s: load just over PerpetualLoad should not be perpetual", b.Name)
		}
	}
}

func TestShelfLifeCap(t *testing.T) {
	b := Fig3Battery()
	if life := b.Lifetime(0); life != b.ShelfLife {
		t.Errorf("zero-load lifetime = %v, want shelf life %v", life, b.ShelfLife)
	}
	// Uncapped, the zero-load life is bounded by self-discharge alone:
	// 0.85 usable / 1%/yr ≈ 85 years.
	nb := *b
	nb.ShelfLife = 0
	if life := nb.Lifetime(0); math.Abs(float64(life/units.Year)-85) > 1 {
		t.Errorf("uncapped zero-load lifetime = %v, want ≈ 85 yr (self-discharge bound)", life)
	}
	// With neither cap nor self-discharge, life is infinite.
	nb.SelfDischargePerYear = 0
	if life := nb.Lifetime(0); !math.IsInf(float64(life), 1) {
		t.Errorf("unbounded zero-load lifetime = %v, want +Inf", life)
	}
}

func TestSelfDischargeShortensLife(t *testing.T) {
	fresh := Fig3Battery()
	leaky := Fig3Battery()
	leaky.SelfDischargePerYear = 0.10
	load := 100 * units.Microwatt
	if leaky.Lifetime(load) >= fresh.Lifetime(load) {
		t.Error("higher self-discharge must shorten lifetime")
	}
}

func TestBatteryString(t *testing.T) {
	if s := Fig3Battery().String(); !strings.Contains(s, "1000 mAh") {
		t.Errorf("battery string %q", s)
	}
}

func TestStateDrawAndDeplete(t *testing.T) {
	b := CR2032()
	s := NewState(b)
	if s.Depleted() {
		t.Fatal("fresh battery depleted")
	}
	total := s.Remaining()
	half := units.Energy(float64(total) / 2)
	if !s.Draw(half) {
		t.Fatal("draw on fresh battery failed")
	}
	if got := s.FractionRemaining(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("fraction remaining = %v, want 0.5", got)
	}
	if !s.Draw(half) { // crossing draw is honored
		t.Fatal("crossing draw should be honored")
	}
	if !s.Depleted() {
		t.Error("battery should be depleted")
	}
	if s.Draw(units.Energy(1)) {
		t.Error("draw after depletion should fail")
	}
	if s.Drained() < total {
		t.Errorf("drained %v < total %v", s.Drained(), total)
	}
	if s.Battery() != b {
		t.Error("Battery() accessor wrong")
	}
}

func TestStateRecharge(t *testing.T) {
	s := NewState(CR2032())
	full := s.Remaining()
	s.Draw(full / 2)
	s.Recharge(full) // overfill clamps
	if s.Remaining() != full {
		t.Errorf("recharge should clamp at full: %v vs %v", s.Remaining(), full)
	}
	s.Recharge(-units.Energy(1)) // negative ignored
	if s.Remaining() != full {
		t.Error("negative recharge should be ignored")
	}
	s.Draw(-units.Energy(1)) // negative draw is a no-op that succeeds
	if s.Remaining() != full {
		t.Error("negative draw should be a no-op")
	}
}

func TestHarvesterSampleBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, h := range Harvesters() {
		for i := 0; i < 1000; i++ {
			p := h.Sample(rng)
			if p < h.Min || p > h.Max {
				t.Fatalf("%s sample %v outside [%v, %v]", h.Name, p, h.Min, h.Max)
			}
		}
		if h.String() == "" {
			t.Error("empty harvester string")
		}
	}
}

func TestHarvesterSampleDeterministic(t *testing.T) {
	h := IndoorPV()
	a := h.Sample(rand.New(rand.NewSource(1)))
	b := h.Sample(rand.New(rand.NewSource(1)))
	if a != b {
		t.Error("same seed should give same sample")
	}
}

func TestWorstCaseSustains(t *testing.T) {
	h := IndoorPV()
	if !h.WorstCaseSustains(9 * units.Microwatt) {
		t.Error("9 µW should survive worst-case indoor PV")
	}
	if h.WorstCaseSustains(11 * units.Microwatt) {
		t.Error("11 µW should not survive worst-case indoor PV")
	}
}
