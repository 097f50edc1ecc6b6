package figures

import (
	"fmt"

	"wiban/internal/bannet"
	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/mac"
	"wiban/internal/nn"
	"wiban/internal/partition"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// TableLatency regenerates TAB-F: end-to-end AI latency of the two
// architectures — local inference on the leaf MCU versus offload to the
// hub NPU over each link — analytically (partition model) and
// cross-checked by the discrete-event simulator for the Wi-R keyword-
// spotting pipeline.
func TableLatency() (*Table, error) {
	models, err := nn.Zoo()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "TAB-F",
		Title: "End-to-end AI latency: local leaf inference vs hub offload",
		Header: []string{"model", "configuration", "compute latency", "transfer",
			"total", "leaf energy/inf"},
	}
	for _, m := range models {
		for _, tr := range []*radio.Transceiver{radio.WiR(), radioBLE()} {
			cuts, err := partition.Evaluate(partition.Config{
				Model: m, Leaf: partition.LeafMCU(), Hub: partition.HubSoC(),
				Link: partition.FromTransceiver(tr), BitsPerElement: 8,
			})
			if err != nil {
				return nil, err
			}
			offload := cuts[0]
			local := cuts[len(cuts)-1]
			t.Rows = append(t.Rows, []string{
				m.Name, "offload via " + tr.Name,
				units.Duration(float64(offload.HubMACs) / partition.HubSoC().MACRate).String(),
				tr.Goodput.TimeFor(float64(offload.TxBits)).String(),
				offload.Latency.String(), offload.LeafEnergy.String(),
			})
			if tr.Name == radio.WiR().Name {
				t.Rows = append(t.Rows, []string{
					m.Name, "local on leaf MCU",
					units.Duration(float64(local.LeafMACs) / partition.LeafMCU().MACRate).String(),
					tr.Goodput.TimeFor(float64(local.TxBits)).String(),
					local.Latency.String(), local.LeafEnergy.String(),
				})
			}
		}
	}

	// Simulator cross-check: the full KWS pipeline (packetization, TDMA
	// slot wait, ARQ, hub queue) for the Wi-R audio node.
	kws, err := nn.KWSNet()
	if err != nil {
		return nil, err
	}
	rep, err := bannet.Run(bannet.Config{Seed: 5, Nodes: []bannet.NodeConfig{{
		ID: 1, Name: "kws-mic", Sensor: sensors.MicMono(),
		Policy: isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
		Radio:  radio.WiR(), Battery: energy.Fig3Battery(),
		PacketBits: 1960, PER: 0.01, MaxRetries: 5,
		Inference: &bannet.InferenceSpec{Name: "KWS", MACs: kws.TotalMACs(), InputBits: 49 * 10 * 8},
	}}}, 5*units.Minute)
	if err != nil {
		return nil, err
	}
	n := rep.NodeByName("kws-mic")
	t.Notes = append(t.Notes, fmt.Sprintf(
		"DES cross-check (KWS over Wi-R, %v superframe TDMA): %d inferences, e2e p50 %v / p99 %v, hub util %.2f%%",
		mac.DefaultTDMA().Superframe, n.Inferences, n.InferenceP50, n.InferenceP99,
		rep.HubUtilization*100))
	t.Notes = append(t.Notes,
		"analytic rows exclude input-assembly and MAC slot wait; the DES row includes both")
	return t, nil
}

// AblationMAC regenerates ABL-3: the arbitration ablation on the shared
// body medium — TDMA (the design point) against polling and slotted CSMA
// for a growing node count.
func AblationMAC() (*Table, error) {
	t := &Table{
		ID:    "ABL-3",
		Title: "Medium arbitration on the shared Wi-R bus: TDMA vs polling vs slotted CSMA",
		Header: []string{"nodes", "TDMA utilization", "TDMA sync cost/node",
			"polling efficiency", "CSMA throughput (opt p)", "CSMA energy penalty"},
	}
	csma := mac.SlottedCSMA{}
	poll := &mac.Polling{PollBits: 64, Turnaround: 50 * units.Microsecond, LinkRate: 4 * units.Mbps}
	for _, n := range []int{2, 4, 8, 16} {
		var demands []mac.Demand
		for i := 0; i < n; i++ {
			demands = append(demands, mac.Demand{NodeID: i, Rate: 64 * units.Kbps, PacketBits: 8192})
		}
		sched, err := mac.DefaultTDMA().Build(demands)
		if err != nil {
			return nil, err
		}
		wir := radio.WiR()
		syncPower := units.Power(sched.SyncOverheadRate() *
			(float64(wir.WakeEnergy) + float64(wir.ActiveRX.Times(sched.BeaconTime))))
		p := csma.OptimalP(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f%%", sched.Utilization()*100),
			syncPower.String(),
			fmt.Sprintf("%.1f%%", poll.Efficiency(8192)*100),
			fmt.Sprintf("%.1f%%", csma.SuccessProbability(n, p)*100),
			fmt.Sprintf("%.2fx tx", csma.EnergyPenalty(n, p)),
		})
	}
	t.Notes = append(t.Notes,
		"TDMA pays a fixed µW-class beacon cost and keeps 100% of transmissions useful;",
		"contention converges to 1/e throughput and burns >1 transmission per delivery — fatal at 100 pJ/bit budgets")
	return t, nil
}
