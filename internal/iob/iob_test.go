package iob

import (
	"math"
	"strings"
	"testing"

	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// radioBLE aliases the BLE baseline for the projector comparison test.
func radioBLE() *radio.Transceiver { return radio.BLE42() }

func ecgWorkload(t *testing.T) *Workload {
	t.Helper()
	m, err := nn.ECGNet()
	if err != nil {
		t.Fatal(err)
	}
	return &Workload{Model: m, PerSecond: 1.2} // one beat classification per beat
}

func TestFig1ActiveBreakdownClasses(t *testing.T) {
	// Fig. 1's annotated classes. Conventional: sensors ~100s µW (class
	// range spans 10 µW bio to mW video — we use the ECG node), CPU ~mW,
	// radio ~10s mW. Human-inspired: sensor 10–50 µW, ISA ~100 µW class,
	// Wi-R ~100 µW class.
	conv := ConventionalNode("ecg-conv", sensors.ECGPatch(), ecgWorkload(t))
	b := conv.ActiveBreakdown()
	if b.Compute < 1*units.Milliwatt || b.Compute > 5*units.Milliwatt {
		t.Errorf("conventional CPU active = %v, want ~mW class", b.Compute)
	}
	if b.Comm < 10*units.Milliwatt || b.Comm > 50*units.Milliwatt {
		t.Errorf("conventional radio active = %v, want ~10s mW class", b.Comm)
	}

	hi := HumanInspiredNode("ecg-hi", sensors.ECGPatch(), nil, ecgWorkload(t))
	h := hi.ActiveBreakdown()
	if h.Sense > 50*units.Microwatt {
		t.Errorf("human-inspired sensor = %v, want 10–50 µW", h.Sense)
	}
	if h.Comm > 500*units.Microwatt {
		t.Errorf("Wi-R active = %v, want ~100s µW at most", h.Comm)
	}
	// The architectural punchline: total active power drops by ≥ 20×.
	if ratio := float64(b.Total()) / float64(h.Total()); ratio < 20 {
		t.Errorf("active power ratio conv/hi = %.0f, want ≥ 20", ratio)
	}
}

func TestFig1AverageBreakdown(t *testing.T) {
	conv := ConventionalNode("ecg-conv", sensors.ECGPatch(), ecgWorkload(t))
	hi := HumanInspiredNode("ecg-hi", sensors.ECGPatch(), nil, ecgWorkload(t))
	cb, err := conv.AverageBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hi.AverageBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	// Conventional node: BLE sync overhead + local CPU pins it well above
	// the human-inspired node even on average.
	if ratio := float64(cb.Total()) / float64(hb.Total()); ratio < 5 {
		t.Errorf("average power ratio conv/hi = %.1f, want ≥ 5 (conv %v, hi %v)",
			ratio, cb.Total(), hb.Total())
	}
	// Human-inspired node with the workload offloaded spends nothing on
	// compute.
	if hb.Compute != 0 {
		t.Errorf("offloaded workload should cost the leaf 0 compute, got %v", hb.Compute)
	}
	if s := cb.String(); !strings.Contains(s, "sense") {
		t.Error("breakdown String malformed")
	}
}

func TestBreakdownValidation(t *testing.T) {
	var d NodeDesign
	if _, err := d.AverageBreakdown(); err == nil {
		t.Error("empty design should fail")
	}
	bad := HumanInspiredNode("x", sensors.ECGPatch(), nil, nil)
	bad.Arch = Conventional
	bad.Workload = ecgWorkload(t)
	bad.Compute = nil
	if _, err := bad.AverageBreakdown(); err == nil {
		t.Error("conventional workload without compute should fail")
	}
	if Architecture(9).String() != "Architecture(9)" {
		t.Error("unknown architecture string")
	}
	if Conventional.String() != "conventional" || HumanInspired.String() != "human-inspired" {
		t.Error("architecture names wrong")
	}
}

func TestFig3SweepShape(t *testing.T) {
	p := NewFig3Projector()
	sweep, err := p.Sweep(1, 3.9*units.Mbps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) < 20 {
		t.Fatalf("sweep has %d points", len(sweep))
	}
	// Life must be monotone non-increasing in rate.
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Life > sweep[i-1].Life {
			t.Errorf("life not monotone at %v", sweep[i].Rate)
		}
	}
	// Low-rate end: perpetual. High-rate end: not.
	if !sweep[0].Perpetual {
		t.Error("1 bps node should be perpetual")
	}
	if sweep[len(sweep)-1].Perpetual {
		t.Error("multi-Mbps node should not be perpetual")
	}
}

func TestFig3PerpetualBoundary(t *testing.T) {
	p := NewFig3Projector()
	b := p.PerpetualBoundary()
	// The boundary should sit in the tens-of-kbps decade: biopotential
	// nodes (kbps) are comfortably inside, audio (256 kbps) is outside.
	if b < 3*units.Kbps || b > 300*units.Kbps {
		t.Errorf("perpetual boundary = %v, want within ~10–300 kbps", b)
	}
	inside, _ := p.At(b * 0.9)
	outside, _ := p.At(b * 1.1)
	if !inside.Perpetual || outside.Perpetual {
		t.Error("boundary is not a boundary")
	}
}

func TestFig3MarkersMatchPaperRegions(t *testing.T) {
	// The paper's annotations: biopotential patches, smart rings and
	// fitness trackers are perpetually operable; audio-input AI wearables
	// reach all-week; AI video nodes reach all-day.
	p := NewFig3Projector()
	for _, m := range Fig3Markers() {
		pr, err := p.Mark(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		switch m.Name {
		case "biopotential patch":
			if !pr.Perpetual {
				t.Errorf("%s: life %v, want perpetual", m.Name, pr.Life)
			}
		case "smart ring", "fitness tracker":
			if !pr.Perpetual {
				t.Errorf("%s: life %v, want perpetual", m.Name, pr.Life)
			}
		case "audio AI wearable":
			if pr.Life < units.Week {
				t.Errorf("%s: life %v, want ≥ all-week", m.Name, pr.Life)
			}
			if pr.Perpetual {
				t.Errorf("%s: should not be perpetual", m.Name)
			}
		case "video AI node (MJPEG)":
			if pr.Life < units.Day || pr.Life > 2*units.Week {
				t.Errorf("%s: life %v, want ≥ all-day (and below audio)", m.Name, pr.Life)
			}
		}
	}
}

func TestFig3CommVsSenseStructure(t *testing.T) {
	// On Wi-R the communication power is a minority of the budget across
	// the whole sweep — the structural reason the node no longer needs a
	// high-power radio. At 1 Mbps, comm = 100 pJ/b × 1 Mbps = 100 µW while
	// trend sensing is mWs.
	p := NewFig3Projector()
	pr, err := p.At(1 * units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Comm >= pr.Sense {
		t.Errorf("at 1 Mbps: comm %v should be below sensing %v on Wi-R", pr.Comm, pr.Sense)
	}
}

func TestFig3WiRVersusBLELifetimes(t *testing.T) {
	// Replacing the radio with BLE shifts the whole curve down; at EEG
	// rates (32 kbps) the Wi-R node is perpetual and the BLE node is not.
	wir := NewFig3Projector()
	ble := NewFig3Projector()
	ble.Radio = radioBLE()
	rate := 32 * units.Kbps
	pw, err := wir.At(rate)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ble.At(rate)
	if err != nil {
		t.Fatal(err)
	}
	if !pw.Perpetual {
		t.Errorf("Wi-R EEG node life %v, want perpetual", pw.Life)
	}
	if pb.Perpetual {
		t.Errorf("BLE EEG node life %v, should not be perpetual", pb.Life)
	}
	if pb.Life >= pw.Life {
		t.Error("BLE life should be shorter")
	}
}

func TestSweepValidation(t *testing.T) {
	p := NewFig3Projector()
	if _, err := p.Sweep(0, units.Kbps, 4); err == nil {
		t.Error("zero lo should fail")
	}
	if _, err := p.Sweep(units.Kbps, units.Kbps/2, 4); err == nil {
		t.Error("inverted range should fail")
	}
	if _, err := p.Sweep(1, units.Kbps, 0); err == nil {
		t.Error("zero density should fail")
	}
	if _, err := p.At(100 * units.Mbps); err == nil {
		t.Error("rate beyond goodput should fail")
	}
}

func TestNetworkComposition(t *testing.T) {
	kws, err := nn.KWSNet()
	if err != nil {
		t.Fatal(err)
	}
	net := &Network{
		Name: "demo BAN",
		Hub:  DefaultHub(),
		Nodes: []*NodeDesign{
			HumanInspiredNode("ecg", sensors.ECGPatch(), nil, ecgWorkload(t)),
			HumanInspiredNode("imu", sensors.IMU6Axis(), nil, nil),
			HumanInspiredNode("mic", sensors.MicMono(),
				isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
				&Workload{Model: kws, PerSecond: 2}),
			HumanInspiredNode("cam", sensors.CameraQVGA(),
				isa.Compress{Label: "MJPEG q50", MeasuredRatio: 8, Power: 500 * units.Microwatt}, nil),
		},
	}
	if err := net.Schedulable(nil); err != nil {
		t.Fatalf("network should be schedulable: %v", err)
	}
	if net.TotalLinkRate() >= net.Hub.Radio.Goodput {
		t.Errorf("aggregate rate %v exceeds medium goodput", net.TotalLinkRate())
	}
	// The hub absorbs all AI compute.
	if net.HubComputeLoad() <= 0 {
		t.Error("hub compute load missing")
	}
	if hp := net.HubPower(); hp < 50*units.Milliwatt || hp > units.Watt {
		t.Errorf("hub power %v implausible for a smartwatch-class hub", hp)
	}
	sum, err := net.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ecg", "cam", "aggregate"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestNetworkOverloadDetected(t *testing.T) {
	net := &Network{
		Name: "overloaded",
		Hub:  DefaultHub(),
		Nodes: []*NodeDesign{
			HumanInspiredNode("cam1", sensors.CameraQVGA(), nil, nil), // 9.2 Mbps raw
		},
	}
	if err := net.Schedulable(nil); err == nil {
		t.Error("raw QVGA stream cannot fit a 4 Mbps medium")
	}
}

func TestLinkRateUsesPolicy(t *testing.T) {
	raw := HumanInspiredNode("mic", sensors.MicMono(), nil, nil)
	comp := HumanInspiredNode("mic", sensors.MicMono(),
		isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 0}, nil)
	if got := raw.LinkRate(); math.Abs(float64(got-256*units.Kbps)) > 1 {
		t.Errorf("raw link rate %v", got)
	}
	if got := comp.LinkRate(); math.Abs(float64(got-64*units.Kbps)) > 1 {
		t.Errorf("compressed link rate %v", got)
	}
}
