// Voice assistant: an audio-input wearable-AI node (the AI-pin / pendant
// class the paper's §II-B describes).
//
// The node runs a voice-activity detector in-sensor, ADPCM-compresses only
// the voiced segments, and the keyword-spotting DNN is partitioned between
// leaf and hub — which, over Wi-R, means it runs entirely on the hub.
//
// Run with: go run ./examples/voiceassistant
package main

import (
	"fmt"
	"log"

	"wiban/internal/bannet"
	"wiban/internal/compress"
	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/partition"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// banConfig is the voice node as a simulatable network: the VAD-gated,
// ADPCM-compressed mic stream on both candidate radios, with the keyword
// spotter offloaded to the hub NPU. speechFrac and adpcmRatio come from
// the in-sensor measurement main performs on synthetic speech.
func banConfig(speechFrac, adpcmRatio float64, kws *nn.Sequential) bannet.Config {
	mic := sensors.MicMono()
	policy := isa.Compress{
		Label:         "VAD+ADPCM",
		MeasuredRatio: adpcmRatio / speechFrac, // gating and coding compound
		Power:         50 * units.Microwatt,    // VAD 30 µW + ADPCM 20 µW
	}
	inf := &bannet.InferenceSpec{
		Name: kws.Name, MACs: kws.TotalMACs(), InputBits: kws.InElems() * 8,
	}
	return bannet.Config{Nodes: []bannet.NodeConfig{
		{ID: 1, Name: "wir-mic", Sensor: mic, Policy: policy, Radio: radio.WiR(),
			Battery: energy.Fig3Battery(), PacketBits: 4096, PER: 0.01, MaxRetries: 4,
			Inference: inf},
		{ID: 2, Name: "ble-mic", Sensor: mic, Policy: policy, Radio: radio.BLE42(),
			Battery: energy.Fig3Battery(), PacketBits: 4096, PER: 0.02, MaxRetries: 4,
			Inference: inf},
	}}
}

func main() {
	fs := 16 * units.Kilohertz
	mic := sensors.MicMono()
	batt := energy.Fig3Battery()

	// --- Measure the ISA pipeline on 30 s of synthetic speech ------------
	gen := sensors.NewAudioSynth(fs, 9)
	vad := isa.NewVAD(fs)
	var voiced []float64
	for i := 0; i < 16000*30; i++ {
		s := gen.Next()
		if vad.Process(s) {
			voiced = append(voiced, s)
		}
	}
	speechFrac := vad.SpeechFraction()
	if speechFrac <= 0 {
		log.Fatal("VAD passed no audio; the synthetic speech or VAD tuning regressed")
	}
	raw := sensors.Quantize(voiced, 1.0)
	enc := compress.ADPCMEncode(raw)
	adpcmRatio := compress.Ratio(len(raw)*2, len(enc))
	fmt.Printf("ISA: VAD passes %.0f%% of audio; ADPCM compresses voiced segments %.1fx\n",
		speechFrac*100, adpcmRatio)

	// Combined policy: VAD gating then ADPCM on what remains.
	gated := isa.EventGated{Label: "VAD", EventsPerSecond: speechFrac / 0.4,
		Window: 400 * units.Millisecond, Heartbeat: 200, Power: 30 * units.Microwatt}
	gatedRate := gated.OutputRate(mic.DataRate())
	linkRate := units.DataRate(float64(gatedRate) / adpcmRatio)
	fmt.Printf("link rate: raw %v → VAD %v → +ADPCM %v\n\n", mic.DataRate(), gatedRate, linkRate)

	// --- Partition the keyword spotter across links ----------------------
	kws, err := nn.KWSNet()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioning %s (%d MACs) between leaf MCU and hub NPU:\n",
		kws.Name, kws.TotalMACs())
	for _, tr := range []*radio.Transceiver{radio.WiR(), radio.BLE42()} {
		cuts, err := partition.Evaluate(partition.Config{
			Model: kws, Leaf: partition.LeafMCU(), Hub: partition.HubSoC(),
			Link: partition.FromTransceiver(tr), BitsPerElement: 8,
		})
		if err != nil {
			log.Fatal(err)
		}
		best, _ := partition.Best(cuts)
		where := "leaf keeps the whole network (needs a CPU)"
		if best.Index == 0 {
			where = "everything offloads to the hub (leaf needs no CPU)"
		} else if best.Index < kws.NumLayers() {
			where = fmt.Sprintf("split after layer %d", best.Index)
		}
		fmt.Printf("  %-8s: best cut %d/%d — %s; leaf energy %v/inference, latency %v\n",
			tr.Name, best.Index, kws.NumLayers(), where, best.LeafEnergy, best.Latency)
	}

	// --- Node power and battery life -------------------------------------
	fmt.Println()
	isaPower := gated.ComputePower() + 20*units.Microwatt // VAD + ADPCM
	for _, tr := range []*radio.Transceiver{radio.WiR(), radio.BLE42()} {
		comm, err := tr.AveragePower(linkRate, 10)
		if err != nil {
			log.Fatal(err)
		}
		total := mic.AFEPower + isaPower + comm
		life := batt.Lifetime(total)
		fmt.Printf("%-8s: node power %v → battery life %v", tr.Name, total, life)
		if life >= units.Week {
			fmt.Print("  (the paper's all-week audio class)")
		}
		fmt.Println()
	}

	// --- Discrete-event cross-check --------------------------------------
	// The same node in the network simulator, keyword spotting offloaded
	// to the hub: end-to-end inference latency includes window assembly,
	// the TDMA schedule and the NPU queue.
	cfg := banConfig(speechFrac, adpcmRatio, kws)
	cfg.Seed = 17
	rep, err := bannet.Run(cfg, 10*units.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsimulating 10 min with hub-side keyword spotting:")
	for _, n := range rep.Nodes {
		fmt.Printf("  %-8s: %d inferences, e2e p50 %v / p99 %v, avg power %v\n",
			n.Name, n.Inferences, n.InferenceP50, n.InferenceP99, n.AvgPower)
	}
}
