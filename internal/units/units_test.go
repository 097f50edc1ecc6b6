package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestPowerTimesDuration(t *testing.T) {
	tests := []struct {
		name string
		p    Power
		d    Duration
		want Energy
	}{
		{"100pJ/bit at 1bit/s for 1s style", 100 * Microwatt, Second, 100 * Microjoule},
		{"1W for 1h", Watt, Hour, Energy(3600)},
		{"415nW for 1 day", 415 * Nanowatt, Day, Energy(415e-9 * 86400)},
		{"zero power", 0, Year, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.p.Times(tt.d)
			if !almostEqual(float64(got), float64(tt.want), 1e-12) {
				t.Errorf("Times() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEnergyOverPower(t *testing.T) {
	// A 1000 mAh / 3 V battery holds 10.8 kJ; at 342.4 µW it lasts ~1 year.
	e := MilliampHour.Energy(3*Volt) * 1000
	if !almostEqual(float64(e), 10800, 1e-9) {
		t.Fatalf("1000 mAh @ 3 V = %v J, want 10800 J", float64(e))
	}
	life := e.Over(342.2 * Microwatt)
	if life.Years() < 0.99 || life.Years() > 1.01 {
		t.Errorf("lifetime at ~342 µW = %v years, want ≈1", life.Years())
	}
	if !math.IsInf(float64(e.Over(0)), 1) {
		t.Errorf("lifetime at 0 power should be +Inf")
	}
}

func TestEnergyPerBit(t *testing.T) {
	// Wi-R headline: 100 pJ/bit at 4 Mbps is 400 µW of comm power.
	p := EnergyPerBit(100e-12).PowerAt(4 * Mbps)
	if !almostEqual(float64(p), 400e-6, 1e-12) {
		t.Errorf("100 pJ/b @ 4 Mbps = %v, want 400 µW", p)
	}
	// BLE-class: 10 nJ/bit at 1 Mbps is 10 mW.
	p = EnergyPerBit(10e-9).PowerAt(1 * Mbps)
	if !almostEqual(float64(p), 10e-3, 1e-12) {
		t.Errorf("10 nJ/b @ 1 Mbps = %v, want 10 mW", p)
	}
	e := EnergyPerBit(100e-12).EnergyFor(8e6)
	if !almostEqual(float64(e), 800e-6, 1e-12) {
		t.Errorf("100 pJ/b for 1 MB = %v, want 800 µJ", e)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 200) // keep within float range
		return almostEqual(DB(FromDB(db)), db, 1e-9) &&
			almostEqual(DBV(FromDBV(db)), db, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBmKnownPoints(t *testing.T) {
	if !almostEqual(DBm(Milliwatt), 0, 1e-9) {
		t.Errorf("1 mW = %v dBm, want 0", DBm(Milliwatt))
	}
	if !almostEqual(DBm(Watt), 30, 1e-9) {
		t.Errorf("1 W = %v dBm, want 30", DBm(Watt))
	}
	if !almostEqual(float64(FromDBm(-90)), 1e-12, 1e-9) {
		t.Errorf("-90 dBm = %v, want 1 pW", FromDBm(-90))
	}
}

func TestDurationString(t *testing.T) {
	tests := []struct {
		d    Duration
		want string
	}{
		{2 * Year, "2 yr"},
		{3 * Day, "3 d"},
		{5 * Hour, "5 h"},
		{90 * Second, "1.5 min"},
		{2 * Second, "2 s"},
		{1500 * Microsecond, "1.5 ms"},
		{Duration(math.Inf(1)), "∞"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("Duration(%g).String() = %q, want %q", float64(tt.d), got, tt.want)
		}
	}
}

func TestSIFormatStrings(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{(415 * Nanowatt).String(), "415 nW"},
		{(100 * Microwatt).String(), "100 µW"},
		{(6300 * Picojoule).String(), "6.3 nJ"},
		{(4 * Mbps).String(), "4 Mbps"},
		{(30 * Megahertz).String(), "30 MHz"},
		{(150 * Picofarad).String(), "150 pF"},
		{EnergyPerBit(100e-12).String(), "100 pJ/b"},
		{Power(0).String(), "0 W"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("formatted %q, want %q", tt.got, tt.want)
		}
	}
}

func TestSIFormatNegative(t *testing.T) {
	if got := Power(-2.5e-3).String(); !strings.HasPrefix(got, "-2.5 m") {
		t.Errorf("negative power formatted %q", got)
	}
}

func TestRateHelpers(t *testing.T) {
	if bt := (1 * Mbps).BitTime(); !almostEqual(float64(bt), 1e-6, 1e-12) {
		t.Errorf("bit time at 1 Mbps = %v, want 1 µs", bt)
	}
	if tf := (4 * Mbps).TimeFor(4e6); !almostEqual(float64(tf), 1, 1e-12) {
		t.Errorf("4 Mb at 4 Mbps = %v, want 1 s", tf)
	}
	if !math.IsInf(float64(DataRate(0).BitTime()), 1) {
		t.Errorf("bit time at 0 rate should be +Inf")
	}
}

func TestEnergyAt(t *testing.T) {
	if p := Energy(10800).At(Year); !almostEqual(float64(p), 10800/31557600.0, 1e-12) {
		t.Errorf("10.8 kJ over a year = %v", p)
	}
	if !math.IsInf(float64(Energy(1).At(0)), 1) {
		t.Errorf("energy over zero time should be +Inf power")
	}
}

func TestClamp(t *testing.T) {
	f := func(v float64) bool {
		got := Clamp(v, -1, 1)
		return got >= -1 && got <= 1 && (got == v || v < -1 || v > 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerDurationInverse(t *testing.T) {
	// Property: for positive p and d, (p·d)/p == d.
	f := func(pw, dw uint32) bool {
		p := Power(float64(pw%1e6)+1) * Microwatt
		d := Duration(float64(dw%1e6) + 1)
		e := p.Times(d)
		return almostEqual(float64(e.Over(p)), float64(d), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
