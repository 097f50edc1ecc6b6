package radio

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"wiban/internal/units"
)

func TestEnergyPerGoodBitMatchesCitedSilicon(t *testing.T) {
	tests := []struct {
		tr       *Transceiver
		wantEPB  units.EnergyPerBit
		tolerant float64 // relative tolerance
	}{
		{WiR(), units.EnergyPerBit(100e-12), 0.05},
		{BodyWire(), units.EnergyPerBit(6.3e-12), 0.05},
		{SubUWrComm(), units.EnergyPerBit(41.5e-12), 0.05},
	}
	for _, tt := range tests {
		got := tt.tr.EnergyPerGoodBit()
		rel := math.Abs(float64(got)-float64(tt.wantEPB)) / float64(tt.wantEPB)
		if rel > tt.tolerant {
			t.Errorf("%s: energy/bit = %v, want ≈ %v", tt.tr.Name, got, tt.wantEPB)
		}
	}
}

func TestPaperClaimRateAndPowerRatios(t *testing.T) {
	wir, ble := WiR(), BLE42()
	// ">10× faster than BLE": goodput ratio.
	if ratio := float64(wir.Goodput) / float64(ble.Goodput); ratio < 10 {
		t.Errorf("Wi-R/BLE goodput ratio = %.1f, paper claims > 10", ratio)
	}
	// "<100× lower power": energy per delivered bit ratio.
	if ratio := float64(ble.EnergyPerGoodBit()) / float64(wir.EnergyPerGoodBit()); ratio < 100 {
		t.Errorf("BLE/Wi-R energy-per-bit ratio = %.0f, paper claims ≥ 100", ratio)
	}
	// Even the most favorable BLE (5 + DLE) stays ≥ 100× worse per bit.
	if ratio := float64(BLE5DLE().EnergyPerGoodBit()) / float64(wir.EnergyPerGoodBit()); ratio < 100 {
		t.Errorf("BLE5-DLE/Wi-R energy ratio = %.0f, want ≥ 100", ratio)
	}
}

func TestBLEActivePowerInPaperRange(t *testing.T) {
	// §III-B: RF-based communication burns 1–10 mW (and real BLE silicon
	// peaks higher). Our active model must sit in the mW class.
	for _, tr := range []*Transceiver{BLE42(), BLE5DLE()} {
		if tr.ActiveTX < 1*units.Milliwatt {
			t.Errorf("%s active power %v below the paper's 1–10 mW RF class", tr.Name, tr.ActiveTX)
		}
	}
	// While every EQS design is sub-mW ("≤ 100s of µW").
	for _, tr := range []*Transceiver{WiR(), BodyWire(), SubUWrComm()} {
		if tr.ActiveTX > 500*units.Microwatt {
			t.Errorf("%s active power %v above the EQS µW class", tr.Name, tr.ActiveTX)
		}
	}
}

func TestAveragePowerDutyCycling(t *testing.T) {
	wir := WiR()
	// Carrying 1 kbps on a 3.9 Mbps link is a ~2.6e-4 duty cycle: the
	// average should collapse toward the sleep floor plus ~100 pJ/b × rate.
	avg, err := wir.AveragePower(1*units.Kbps, 1)
	if err != nil {
		t.Fatal(err)
	}
	marginal := units.Power(float64(wir.EnergyPerGoodBit()) * float64(1*units.Kbps))
	floor := wir.Sleep
	if avg < floor || float64(avg) > 3*(float64(marginal)+float64(floor))+float64(wir.WakeEnergy) {
		t.Errorf("duty-cycled avg power %v implausible (marginal %v, floor %v)", avg, marginal, floor)
	}
	// Full utilization approaches active power.
	full, err := wir.AveragePower(wir.Goodput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(full)-float64(wir.ActiveTX)) > 1e-9 {
		t.Errorf("full-rate avg %v, want active %v", full, wir.ActiveTX)
	}
}

func TestAveragePowerMonotoneInRate(t *testing.T) {
	for _, tr := range Catalog() {
		f := func(a, b uint16) bool {
			ra := units.DataRate(a) * tr.Goodput / 65536
			rb := units.DataRate(b) * tr.Goodput / 65536
			if ra > rb {
				ra, rb = rb, ra
			}
			pa, erra := tr.AveragePower(ra, 1)
			pb, errb := tr.AveragePower(rb, 1)
			return erra == nil && errb == nil && pa <= pb+1e-15
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
	}
}

func TestAveragePowerRejectsOverrate(t *testing.T) {
	wir := WiR()
	_, err := wir.AveragePower(10*units.Mbps, 0)
	if !errors.Is(err, ErrRateExceedsGoodput) {
		t.Errorf("expected ErrRateExceedsGoodput, got %v", err)
	}
}

func TestWakeOverheadCounts(t *testing.T) {
	ble := BLE42()
	lazy, _ := ble.AveragePower(1*units.Kbps, 1)    // one connection event/s
	eager, _ := ble.AveragePower(1*units.Kbps, 100) // 100 events/s
	wantDelta := units.Power(99 * float64(ble.WakeEnergy))
	if math.Abs(float64(eager-lazy)-float64(wantDelta)) > 1e-12 {
		t.Errorf("wake overhead delta = %v, want %v", eager-lazy, wantDelta)
	}
}

func TestTimeOnAirFragmentation(t *testing.T) {
	ble := BLE42()
	// 100 bytes over 27-byte PDUs = 4 frames, each +80 overhead bits.
	bits := 100 * 8
	toa := ble.TimeOnAir(bits)
	wantBits := float64(bits + 4*80)
	want := ble.LinkRate.TimeFor(wantBits)
	if math.Abs(float64(toa)-float64(want)) > 1e-12 {
		t.Errorf("TimeOnAir = %v, want %v", toa, want)
	}
	if ble.TimeOnAir(0) != 0 {
		t.Error("empty payload should take no air time")
	}
}

func TestTimeOnAirMonotone(t *testing.T) {
	for _, tr := range Catalog() {
		f := func(a, b uint16) bool {
			x, y := int(a), int(b)
			if x > y {
				x, y = y, x
			}
			return tr.TimeOnAir(x) <= tr.TimeOnAir(y)+1e-15
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", tr.Name, err)
		}
	}
}

func TestEnergyPerPacket(t *testing.T) {
	wir := WiR()
	e := wir.EnergyPerPacket(1024 * 8)
	// Must exceed pure payload energy (overhead + wake) but stay same order.
	floor := wir.EnergyPerGoodBit().EnergyFor(1024 * 8)
	if e <= floor {
		t.Errorf("packet energy %v should exceed payload floor %v", e, floor)
	}
	if float64(e) > 2*float64(floor)+float64(wir.WakeEnergy)*2 {
		t.Errorf("packet energy %v implausibly above floor %v", e, floor)
	}
}

func TestCatalogOrderingAndTech(t *testing.T) {
	cat := Catalog()
	if len(cat) != 6 {
		t.Fatalf("catalog size %d, want 6", len(cat))
	}
	eqsCount := 0
	for _, tr := range cat {
		if tr.Tech == TechEQS {
			eqsCount++
			if tr.ActiveTX >= 1*units.Milliwatt {
				t.Errorf("%s: EQS design should be sub-mW", tr.Name)
			}
		}
	}
	if eqsCount != 3 {
		t.Errorf("EQS designs = %d, want 3", eqsCount)
	}
	if TechEQS.String() != "EQS-HBC" || TechRF.String() != "RF" || TechMQS.String() != "MQS-HBC" {
		t.Error("technology names wrong")
	}
	if Technology(9).String() != "Technology(9)" {
		t.Error("unknown technology string wrong")
	}
}

func TestGoodputNeverExceedsLinkRate(t *testing.T) {
	for _, tr := range Catalog() {
		if tr.Goodput > tr.LinkRate {
			t.Errorf("%s: goodput %v exceeds link rate %v", tr.Name, tr.Goodput, tr.LinkRate)
		}
	}
}

func TestDegenerateTransceiver(t *testing.T) {
	var tr Transceiver
	if !math.IsInf(float64(tr.EnergyPerGoodBit()), 1) {
		t.Error("zero-goodput transceiver should report infinite energy/bit")
	}
	if tr.DutyCycle(units.Kbps) != 1 {
		t.Error("zero-goodput duty cycle should clamp to 1")
	}
}
