package partition

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wiban/internal/nn"
	"wiban/internal/radio"
	"wiban/internal/units"
)

func kws(t *testing.T) *nn.Sequential {
	t.Helper()
	m, err := nn.KWSNet()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cfgFor(t *testing.T, m *nn.Sequential, tr *radio.Transceiver) Config {
	t.Helper()
	return Config{
		Model: m, Leaf: LeafMCU(), Hub: HubSoC(),
		Link: FromTransceiver(tr), BitsPerElement: 8,
	}
}

func TestCutAccountingInvariants(t *testing.T) {
	m := kws(t)
	cuts, err := Evaluate(cfgFor(t, m, radio.WiR()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != m.NumLayers()+1 {
		t.Fatalf("cut count %d, want %d", len(cuts), m.NumLayers()+1)
	}
	total := m.TotalMACs()
	for _, c := range cuts {
		if c.LeafMACs+c.HubMACs != total {
			t.Errorf("cut %d: MACs don't sum (%d + %d ≠ %d)", c.Index, c.LeafMACs, c.HubMACs, total)
		}
		if c.TxBits <= 0 {
			t.Errorf("cut %d: non-positive TxBits", c.Index)
		}
		if c.LeafEnergy < c.TxEnergy || c.LeafEnergy < c.LeafComputeEnergy {
			t.Errorf("cut %d: energy accounting inconsistent", c.Index)
		}
		if c.Latency <= 0 {
			t.Errorf("cut %d: non-positive latency", c.Index)
		}
	}
	// Cut 0 must have zero compute; cut N must carry all MACs.
	if cuts[0].LeafMACs != 0 || cuts[0].LeafComputeEnergy != 0 {
		t.Error("cut 0 should have no leaf compute")
	}
	if cuts[len(cuts)-1].LeafMACs != total {
		t.Error("final cut should carry all MACs on the leaf")
	}
}

func TestPaperClaimWiRFlipsTheArchitecture(t *testing.T) {
	// The paper's central architectural claim, quantified: with a
	// BLE-class link the optimal leaf keeps the whole network local (it
	// needs a CPU); with Wi-R the optimal leaf transmits raw input (it
	// needs no CPU at all).
	for _, mk := range []func() (*nn.Sequential, error){nn.KWSNet, nn.ECGNet, nn.VisionNet} {
		m, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		bleCuts, err := Evaluate(cfgFor(t, m, radio.BLE42()))
		if err != nil {
			t.Fatal(err)
		}
		wirCuts, err := Evaluate(cfgFor(t, m, radio.WiR()))
		if err != nil {
			t.Fatal(err)
		}
		bleBest, _ := Best(bleCuts)
		wirBest, _ := Best(wirCuts)

		if wirBest.Index != 0 {
			t.Errorf("%s: Wi-R optimal cut = %d, want 0 (sensor-only leaf)", m.Name, wirBest.Index)
		}
		if bleBest.Index <= wirBest.Index {
			t.Errorf("%s: BLE optimal cut %d should be later than Wi-R's %d",
				m.Name, bleBest.Index, wirBest.Index)
		}
		// And the Wi-R leaf is at least 20× cheaper per inference.
		if ratio := float64(bleBest.LeafEnergy) / float64(wirBest.LeafEnergy); ratio < 20 {
			t.Errorf("%s: leaf energy ratio BLE/WiR = %.1f, want ≥ 20", m.Name, ratio)
		}
	}
}

func TestBLEForcesLocalCompute(t *testing.T) {
	// With BLE, streaming raw input must be strictly worse than computing
	// locally — the "no alternative but on-board computing" sentence.
	m := kws(t)
	cuts, _ := Evaluate(cfgFor(t, m, radio.BLE42()))
	allOffload := cuts[0]
	allLocal := cuts[len(cuts)-1]
	if allOffload.LeafEnergy <= allLocal.LeafEnergy {
		t.Errorf("BLE: raw streaming (%v) should cost more than local compute (%v)",
			allOffload.LeafEnergy, allLocal.LeafEnergy)
	}
}

func TestWiROffloadAlsoWinsLatency(t *testing.T) {
	// Offloading over Wi-R beats local MCU inference on latency too
	// (hub NPU is ~200× faster than the MCU).
	m := kws(t)
	cuts, _ := Evaluate(cfgFor(t, m, radio.WiR()))
	offload := cuts[0]
	local := cuts[len(cuts)-1]
	if offload.Latency >= local.Latency {
		t.Errorf("Wi-R offload latency %v should beat local %v", offload.Latency, local.Latency)
	}
	if offload.Latency > 50*units.Millisecond {
		t.Errorf("Wi-R offload latency %v implausibly high for a 3.9 Mbps link", offload.Latency)
	}
}

func TestBestUnderLatency(t *testing.T) {
	m := kws(t)
	cuts, _ := Evaluate(cfgFor(t, m, radio.SubUWrComm()))
	// The 10 kbps authentication link cannot move KWS features quickly:
	// under a tight deadline the best feasible cut keeps compute local.
	best, err := Best(cuts)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := BestUnderLatency(cuts, 150*units.Millisecond)
	if err == nil {
		if tight.LeafEnergy < best.LeafEnergy {
			t.Error("constrained optimum cannot beat unconstrained optimum")
		}
		if tight.Latency > 150*units.Millisecond {
			t.Error("deadline violated")
		}
	}
	// An impossible deadline must error.
	if _, err := BestUnderLatency(cuts, units.Microsecond); err == nil {
		t.Error("impossible deadline should fail")
	}
}

func TestParetoFrontProperties(t *testing.T) {
	m := kws(t)
	for _, tr := range []*radio.Transceiver{radio.WiR(), radio.BLE42(), radio.BodyWire()} {
		cuts, _ := Evaluate(cfgFor(t, m, tr))
		front := Pareto(cuts)
		if len(front) == 0 {
			t.Fatalf("%s: empty Pareto front", tr.Name)
		}
		// Front must be sorted by energy with strictly decreasing latency.
		for i := 1; i < len(front); i++ {
			if front[i].LeafEnergy < front[i-1].LeafEnergy {
				t.Errorf("%s: front not energy-sorted", tr.Name)
			}
			if front[i].Latency >= front[i-1].Latency {
				t.Errorf("%s: front latency not strictly improving", tr.Name)
			}
		}
		// No cut may dominate a front member.
		for _, f := range front {
			for _, c := range cuts {
				if c.LeafEnergy < f.LeafEnergy && c.Latency < f.Latency {
					t.Errorf("%s: cut %d dominates front member %d", tr.Name, c.Index, f.Index)
				}
			}
		}
	}
}

func TestLeafPowerAt(t *testing.T) {
	m := kws(t)
	cuts, _ := Evaluate(cfgFor(t, m, radio.WiR()))
	offload := cuts[0]
	local := cuts[len(cuts)-1]
	leaf := LeafMCU()
	// A sensor-only leaf (cut 0) at 2 inferences/s should stay in the
	// µW-class (no idle MCU floor); a local-compute leaf pays the floor.
	pOff := offload.LeafPowerAt(2, leaf)
	pLoc := local.LeafPowerAt(2, leaf)
	if pOff >= pLoc {
		t.Errorf("offload power %v should be below local %v", pOff, pLoc)
	}
	if pOff > 100*units.Microwatt {
		t.Errorf("Wi-R offload leaf power = %v, want µW class", pOff)
	}
	if pLoc < 100*units.Microwatt {
		t.Errorf("local-compute leaf power = %v, want ≳ 100 µW", pLoc)
	}
}

func TestAcceleratorShiftsCrossover(t *testing.T) {
	// A 4 pJ/MAC accelerator makes local compute cheaper, so the BLE
	// configuration's local option improves while Wi-R still prefers
	// offload at 100 pJ/b.
	m := kws(t)
	mcuCfg := cfgFor(t, m, radio.BLE42())
	accCfg := mcuCfg
	accCfg.Leaf = LeafAccelerator()
	mcuCuts, _ := Evaluate(mcuCfg)
	accCuts, _ := Evaluate(accCfg)
	mcuLocal := mcuCuts[len(mcuCuts)-1]
	accLocal := accCuts[len(accCuts)-1]
	if accLocal.LeafEnergy >= mcuLocal.LeafEnergy {
		t.Error("accelerator should cut local-compute energy")
	}
	wirAcc := accCfg
	wirAcc.Link = FromTransceiver(radio.WiR())
	wirCuts, _ := Evaluate(wirAcc)
	best, _ := Best(wirCuts)
	if best.Index != 0 {
		t.Errorf("even with an accelerator, Wi-R optimal cut = %d, want 0", best.Index)
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	m := kws(t)
	bad := Config{Model: m, Leaf: LeafMCU(), Hub: HubSoC(), Link: Link{Rate: 0}}
	if _, err := Evaluate(bad); err == nil {
		t.Error("zero-rate link should fail")
	}
	if _, err := Best(nil); err == nil {
		t.Error("Best of no cuts should fail")
	}
}

func TestResultBitsOverride(t *testing.T) {
	m := kws(t)
	cfg := cfgFor(t, m, radio.WiR())
	cfg.ResultBits = 32 // a class index
	cuts, _ := Evaluate(cfg)
	final := cuts[len(cuts)-1]
	if final.TxBits != 32 {
		t.Errorf("final cut TxBits = %d, want 32", final.TxBits)
	}
}

func TestEnergyMonotoneInLinkCost(t *testing.T) {
	// Property: scaling the link's energy/bit up cannot lower any cut's
	// leaf energy, and can only push the best cut later.
	m := kws(t)
	f := func(mult uint8) bool {
		k := float64(mult%50) + 1
		base := cfgFor(t, m, radio.WiR())
		exp := base
		exp.Link.EnergyPerBit = base.Link.EnergyPerBit * units.EnergyPerBit(k)
		baseCuts, err1 := Evaluate(base)
		expCuts, err2 := Evaluate(exp)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range baseCuts {
			if expCuts[i].LeafEnergy < baseCuts[i].LeafEnergy {
				return false
			}
		}
		b1, _ := Best(baseCuts)
		b2, _ := Best(expCuts)
		return b2.Index >= b1.Index
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	m := kws(t)
	cuts, _ := Evaluate(cfgFor(t, m, radio.WiR()))
	if !strings.Contains(cuts[0].Describe(), "cut@0") {
		t.Error("Describe missing cut index")
	}
}

func TestLatencyComponentsFinite(t *testing.T) {
	m := kws(t)
	cuts, _ := Evaluate(cfgFor(t, m, radio.BLE42()))
	for _, c := range cuts {
		if math.IsInf(float64(c.Latency), 0) || math.IsNaN(float64(c.Latency)) {
			t.Fatalf("cut %d latency not finite", c.Index)
		}
	}
}
