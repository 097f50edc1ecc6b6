package phy

import (
	"math"
	"testing"
	"testing/quick"

	"wiban/internal/units"
)

func TestBERKnownPoints(t *testing.T) {
	// BPSK at Eb/N0 = 9.6 dB gives BER ≈ 1e-5 (textbook point).
	ber := BPSK.BER(units.FromDB(9.6))
	if ber < 0.5e-5 || ber > 2e-5 {
		t.Errorf("BPSK BER at 9.6 dB = %g, want ≈ 1e-5", ber)
	}
	// OOK needs more Eb/N0 than BPSK at the same BER.
	if OOK.BER(units.FromDB(9.6)) <= ber {
		t.Error("OOK should be worse than BPSK at equal Eb/N0")
	}
	// GFSK is ≈1 dB worse than plain 2-FSK.
	if GFSK.BER(10) <= FSK2.BER(10) {
		t.Error("GFSK should be worse than 2-FSK at equal Eb/N0")
	}
}

func TestBERMonotoneDecreasing(t *testing.T) {
	for _, m := range []Modulation{OOK, BPSK, FSK2, GFSK} {
		f := func(a, b uint16) bool {
			x := float64(a)/100 + 0.01
			y := float64(b)/100 + 0.01
			if x > y {
				x, y = y, x
			}
			return m.BER(x) >= m.BER(y)-1e-15
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestBERBounds(t *testing.T) {
	for _, m := range []Modulation{OOK, BPSK, FSK2, GFSK} {
		if got := m.BER(0); got != 0.5 {
			t.Errorf("%v BER at zero SNR = %v, want 0.5", m, got)
		}
		if got := m.BER(-3); got != 0.5 {
			t.Errorf("%v BER at negative SNR = %v, want 0.5", m, got)
		}
		if got := m.BER(1e4); got > 1e-30 {
			t.Errorf("%v BER at huge SNR = %v, want ≈ 0", m, got)
		}
	}
}

func TestRequiredEbN0RoundTrip(t *testing.T) {
	for _, m := range []Modulation{OOK, BPSK, FSK2, GFSK} {
		for _, target := range []float64{1e-3, 1e-5, 1e-7} {
			need := m.RequiredEbN0(target)
			got := m.BER(need)
			if got > target*1.01 {
				t.Errorf("%v: BER(RequiredEbN0(%g)) = %g, exceeds target", m, target, got)
			}
			// And barely: 1 dB less must miss the target.
			if m.BER(need/units.FromDB(1)) < target {
				t.Errorf("%v: RequiredEbN0(%g) not tight", m, target)
			}
		}
	}
	if BPSK.RequiredEbN0(0.5) != 0 {
		t.Error("RequiredEbN0(0.5) should be 0")
	}
}

func TestNoiseFloorKnownPoint(t *testing.T) {
	// kTB at 290 K over 1 MHz = -114 dBm; with 10 dB NF, -104 dBm.
	n := NoiseFloor(1*units.Megahertz, 10)
	if got := units.DBm(n); math.Abs(got-(-104)) > 0.2 {
		t.Errorf("noise floor = %.1f dBm, want ≈ -104 dBm", got)
	}
}

// TestShannonCeiling holds MaxRateForBER under the channel capacity on
// links the claims table does not cover.
func TestShannonCeiling(t *testing.T) {
	for _, l := range []*Link{BLELink(1.5 * units.Meter), MQSLink(5 * units.Centimeter)} {
		if max := l.MaxRateForBER(1e-6); float64(max) > float64(l.ShannonCapacity()) {
			t.Errorf("%s: practical rate %v exceeds Shannon capacity %v",
				l.Name, max, l.ShannonCapacity())
		}
	}
}

func TestPERProperties(t *testing.T) {
	l := WiRLink(1.5 * units.Meter)
	// PER grows with packet size and is within [0,1].
	per256 := l.PER(256 * 8)
	per4k := l.PER(4096 * 8)
	if per256 < 0 || per4k > 1 || per4k < per256 {
		t.Errorf("PER(256B)=%g PER(4kB)=%g: want monotone in [0,1]", per256, per4k)
	}
	// Tiny-BER stability: with BER ~1e-9, PER(1000 bits) ≈ 1e-6, not 0.
	weak := *l
	weak.TXPower = l.TXPower / 4
	ber := weak.BER()
	if ber > 0 {
		per := weak.PER(1000)
		approx := 1 - math.Pow(1-ber, 1000)
		if per <= 0 || math.Abs(per-approx) > 1e-3*approx+1e-18 {
			t.Errorf("PER numerics: got %g, direct %g (BER %g)", per, approx, ber)
		}
	}
}

func TestPERDegenerate(t *testing.T) {
	l := &Link{Mod: BPSK, TXPower: 1, GainDB: 0, Rate: 1, Bandwidth: 1, NoiseFigDB: 0}
	if l.PER(0) != 0 {
		t.Error("PER of empty packet should be 0")
	}
	dead := &Link{Mod: BPSK, TXPower: 0, GainDB: -300, Rate: units.Kbps, Bandwidth: units.Kilohertz}
	if p := dead.PER(100); p < 0.99 {
		t.Errorf("dead link PER = %g, want ≈ 1", p)
	}
}

func TestMarginConsistency(t *testing.T) {
	l := WiRLink(1.5 * units.Meter)
	m := l.MarginDB(1e-6)
	if !l.Closes(1e-6) || m <= 0 {
		t.Fatalf("expected positive margin, got %.1f dB", m)
	}
	// Shrink TX power by the margin: the link should sit right at target.
	shrunk := *l
	shrunk.TXPower = units.Power(float64(l.TXPower) / units.FromDB(m))
	if got := shrunk.BER(); got > 1.2e-6 {
		t.Errorf("after removing margin, BER = %g, want ≈ 1e-6", got)
	}
}

func TestModulationString(t *testing.T) {
	names := map[Modulation]string{OOK: "OOK", BPSK: "BPSK", FSK2: "2-FSK", GFSK: "GFSK"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("String() = %q, want %q", m.String(), want)
		}
	}
	if Modulation(99).String() != "Modulation(99)" {
		t.Errorf("unknown modulation string = %q", Modulation(99).String())
	}
}
