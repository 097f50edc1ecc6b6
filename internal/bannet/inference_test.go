package bannet

import (
	"math"
	"testing"

	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/partition"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// kwsNode builds an audio node whose stream drives hub-side keyword
// spotting: 3920-bit inputs (49×10 int8 features), 2.55 M MACs each.
func kwsNode(t *testing.T) NodeConfig {
	t.Helper()
	m, err := nn.KWSNet()
	if err != nil {
		t.Fatal(err)
	}
	return NodeConfig{
		ID: 1, Name: "kws-mic",
		Sensor: sensors.MicMono(),
		Policy: isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
		Radio:  radio.WiR(), Battery: energy.Fig3Battery(),
		PacketBits: 1960, PER: 0.01, MaxRetries: 5,
		Inference: &InferenceSpec{Name: "KWS", MACs: m.TotalMACs(),
			InputBits: 49 * 10 * 8},
	}
}

func TestHubInferencePipeline(t *testing.T) {
	rep, err := Run(Config{Seed: 9, Nodes: []NodeConfig{kwsNode(t)}}, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	n := &rep.Nodes[0]
	// 64 kbps stream / 3920 bits per input ≈ 16.3 inferences/s → ~9800 in
	// 10 minutes (minus pipeline fill).
	if n.Inferences < 9000 || n.Inferences > 10000 {
		t.Errorf("inferences = %d, want ≈ 9800", n.Inferences)
	}
	// End-to-end latency: one input window (~61 ms of audio at 64 kbps)
	// plus up to a superframe of slot wait plus ~0.26 ms of NPU time.
	// P50 in 50–400 ms, and always above the packet latency.
	if n.InferenceP50 < 50*units.Millisecond || n.InferenceP50 > 400*units.Millisecond {
		t.Errorf("inference p50 = %v, want 50–400 ms", n.InferenceP50)
	}
	if n.InferenceP99 < n.InferenceP50 {
		t.Error("p99 below p50")
	}
	if n.InferenceP50 <= n.LatencyP50 {
		t.Error("e2e inference latency must exceed packet latency")
	}
	// Hub energy: count × MACs × 8 pJ.
	m, _ := nn.KWSNet()
	wantE := float64(n.Inferences) * float64(m.TotalMACs()) * 8e-12
	if math.Abs(float64(rep.HubComputeEnergy)-wantE)/wantE > 1e-9 {
		t.Errorf("hub compute energy %v, want %.3g J", rep.HubComputeEnergy, wantE)
	}
	// Utilization: 16.3/s × 0.255 ms ≈ 0.42%.
	if rep.HubUtilization <= 0 || rep.HubUtilization > 0.02 {
		t.Errorf("hub utilization %.4f implausible", rep.HubUtilization)
	}
}

func TestHubSaturation(t *testing.T) {
	// A slow hub (embedded MCU standing in as the "brain") saturates on
	// the same stream: utilization pins near 1 and latencies blow up.
	n := kwsNode(t)
	slow := &partition.Platform{Name: "slow hub", EnergyPerMAC: 30 * units.Picojoule,
		MACRate: 30e6, IdlePower: 0}
	// 16.3 inf/s × 2.55 MMAC / 30 MMAC/s = 1.39 > 1: overload.
	rep, err := Run(Config{Seed: 10, Nodes: []NodeConfig{n}, HubCompute: slow}, 2*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HubUtilization < 0.95 {
		t.Errorf("overloaded hub utilization %.2f, want ≈ 1", rep.HubUtilization)
	}
	st := &rep.Nodes[0]
	// The backlog grows linearly in an overloaded deterministic queue, so
	// latencies are ~uniform over [0, max]: p99 ≈ 2×p50, both enormous.
	if st.InferenceP99 < units.Duration(1.5*float64(st.InferenceP50)) {
		t.Errorf("saturated queue: p99 %v should dwarf p50 %v", st.InferenceP99, st.InferenceP50)
	}
	if st.InferenceP50 < 500*units.Millisecond {
		t.Errorf("saturated p50 %v implausibly low", st.InferenceP50)
	}
}

func TestInferenceSpecValidation(t *testing.T) {
	n := kwsNode(t)
	n.Inference = &InferenceSpec{Name: "bad", MACs: 0, InputBits: 100}
	if _, err := Run(Config{Nodes: []NodeConfig{n}}, units.Minute); err == nil {
		t.Error("zero-MAC inference spec should fail")
	}
	n.Inference = &InferenceSpec{Name: "bad", MACs: 100, InputBits: 0}
	if _, err := Run(Config{Nodes: []NodeConfig{n}}, units.Minute); err == nil {
		t.Error("zero-input inference spec should fail")
	}
}

func TestNoInferenceNoHubCompute(t *testing.T) {
	n := kwsNode(t)
	n.Inference = nil
	rep, err := Run(Config{Seed: 11, Nodes: []NodeConfig{n}}, units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HubComputeEnergy != 0 || rep.HubUtilization != 0 {
		t.Error("no inference spec should mean no hub compute")
	}
	if rep.Nodes[0].Inferences != 0 {
		t.Error("no inferences expected")
	}
}

func TestInferenceDeterminism(t *testing.T) {
	mk := func() Config { return Config{Seed: 12, Nodes: []NodeConfig{kwsNode(t)}} }
	a, err := Run(mk(), 5*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(), 5*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes[0].Inferences != b.Nodes[0].Inferences ||
		a.Nodes[0].InferenceP99 != b.Nodes[0].InferenceP99 ||
		a.HubComputeEnergy != b.HubComputeEnergy {
		t.Error("inference pipeline not deterministic")
	}
}
