package wiban

// Cross-package integration tests: the full vertical stack, from the
// biophysical channel model to battery-life projections, with no
// hand-specified intermediate quantities.

import (
	"math"
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/energy"
	"wiban/internal/iob"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/phy"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// TestFullStackChannelToBatteryLife derives the packet error rate from the
// physical link budget (channel → PHY), feeds it to the network simulator,
// and checks the resulting battery-life projections land in the paper's
// regions — no free parameters between the physics and the outcome.
func TestFullStackChannelToBatteryLife(t *testing.T) {
	bodyPath := 1.5 * units.Meter
	wirPER := phy.WiRLink(bodyPath).PER(1024 * 8)
	blePER := phy.BLELink(bodyPath).PER(1024 * 8)
	if wirPER >= 0.05 || blePER >= 0.05 {
		t.Fatalf("physical PERs implausible: wir %g ble %g", wirPER, blePER)
	}

	mk := func(id int, name string, tr *radio.Transceiver, per float64) bannet.NodeConfig {
		return bannet.NodeConfig{
			ID: id, Name: name, Sensor: sensors.ECGPatch(), Policy: isa.StreamAll{},
			Radio: tr, Battery: energy.Fig3Battery(),
			PacketBits: 1024, PER: per, MaxRetries: 5,
		}
	}
	rep, err := bannet.Run(bannet.Config{Seed: 21, Nodes: []bannet.NodeConfig{
		mk(1, "wir", radio.WiR(), wirPER),
		mk(2, "ble", radio.BLE42(), blePER),
	}}, units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	wir := rep.NodeByName("wir")
	ble := rep.NodeByName("ble")
	if !wir.Perpetual {
		t.Errorf("Wi-R ECG node not perpetual from first principles (%v)", wir.ProjectedLife)
	}
	if float64(ble.AvgPower) < 5*float64(wir.AvgPower) {
		t.Errorf("physical-stack power ratio too small: %v vs %v", ble.AvgPower, wir.AvgPower)
	}
	if wir.DeliveryRate() < 0.999 || ble.DeliveryRate() < 0.999 {
		t.Error("physical PERs with ARQ should deliver ≈ 100%")
	}
}

// TestFullStackOffloadPipeline runs the trained-model path: train a tiny
// classifier, export it, partition it over the physical Wi-R link, and
// simulate the resulting node — asserting the leaf ends up CPU-less and
// real-time.
func TestFullStackOffloadPipeline(t *testing.T) {
	kws, err := nn.KWSNet()
	if err != nil {
		t.Fatal(err)
	}
	node := bannet.NodeConfig{
		ID: 1, Name: "mic", Sensor: sensors.MicMono(),
		Policy: isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
		Radio:  radio.WiR(), Battery: energy.Fig3Battery(),
		PacketBits: 1960, PER: phy.WiRLink(1 * units.Meter).PER(1960),
		MaxRetries: 5,
		Inference: &bannet.InferenceSpec{Name: "KWS", MACs: kws.TotalMACs(),
			InputBits: int64(kws.InElems()) * 8},
	}
	rep, err := bannet.Run(bannet.Config{Seed: 22, Nodes: []bannet.NodeConfig{node}},
		5*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	n := &rep.Nodes[0]
	if n.Inferences == 0 {
		t.Fatal("no inferences completed")
	}
	// Real-time: sub-quarter-second median end-to-end keyword latency.
	if n.InferenceP50 > 250*units.Millisecond {
		t.Errorf("e2e inference p50 %v too slow for interactive use", n.InferenceP50)
	}
	// Featherweight: the leaf's whole budget stays sub-mW.
	if n.AvgPower > units.Milliwatt {
		t.Errorf("leaf node power %v, want sub-mW", n.AvgPower)
	}
	// The hub barely notices.
	if rep.HubUtilization > 0.05 {
		t.Errorf("hub utilization %.3f implausibly high", rep.HubUtilization)
	}
}

// TestEnergyConservation cross-checks the simulator's books against an
// independent integral: total node energy over the span must equal
// avg power × span to float precision.
func TestEnergyConservation(t *testing.T) {
	cfg := bannet.Config{Seed: 23, Nodes: []bannet.NodeConfig{{
		ID: 1, Name: "imu", Sensor: sensors.IMU6Axis(), Policy: isa.StreamAll{},
		Radio: radio.WiR(), Battery: energy.CR2032(),
		PacketBits: 1024, PER: 0.02, MaxRetries: 3,
	}}}
	span := 30 * units.Minute
	rep, err := bannet.Run(cfg, span)
	if err != nil {
		t.Fatal(err)
	}
	n := &rep.Nodes[0]
	lhs := float64(n.TotalEnergy())
	rhs := float64(n.AvgPower) * float64(span)
	if math.Abs(lhs-rhs) > 1e-9*math.Max(lhs, rhs) {
		t.Errorf("energy books disagree: %g J vs %g J", lhs, rhs)
	}
}

// TestPaperHeadlineNumbers pins the four numbers the abstract leads with,
// as computed by this repository.
func TestPaperHeadlineNumbers(t *testing.T) {
	wir, ble := radio.WiR(), radio.BLE42()
	if r := float64(wir.Goodput) / float64(ble.Goodput); r < 10 {
		t.Errorf(">10× faster claim: measured %.1f×", r)
	}
	if r := float64(ble.EnergyPerGoodBit()) / float64(wir.EnergyPerGoodBit()); r < 100 {
		t.Errorf("<100× power claim: measured %.0f×", r)
	}
	proj := iob.NewFig3Projector()
	if b := proj.PerpetualBoundary(); b < 3*units.Kbps {
		t.Errorf("perpetual region too small: boundary %v", b)
	}
	marker := iob.Fig3Markers()[0] // biopotential patch
	pr, err := proj.Mark(marker)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Perpetual {
		t.Error("biopotential patch must sit in the perpetual region")
	}
}
