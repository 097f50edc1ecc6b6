package wiban

// Benchmark harness: one sub-benchmark per figure/table of the paper,
// plus microbenchmarks of the substrates those figures exercise. Run:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks regenerate the artifact, so -bench doubles as a
// reproduction run.

import (
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/compress"
	"wiban/internal/energy"
	"wiban/internal/figures"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/partition"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// BenchmarkFigures regenerates every figure and table, one sub-benchmark
// per figures.All() name.
func BenchmarkFigures(b *testing.B) {
	for _, g := range figures.All() {
		b.Run(g.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := g.Gen()
				if err != nil {
					b.Fatal(err)
				}
				if len(t.Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// --- Substrate microbenchmarks ----------------------------------------------

// BenchmarkPartitionSweep measures evaluating every cut of the vision
// model over Wi-R.
func BenchmarkPartitionSweep(b *testing.B) {
	m, err := nn.VisionNet()
	if err != nil {
		b.Fatal(err)
	}
	cfg := partition.Config{
		Model: m, Leaf: partition.LeafMCU(), Hub: partition.HubSoC(),
		Link: partition.FromTransceiver(radio.WiR()), BitsPerElement: 8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cuts, err := partition.Evaluate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := partition.Best(cuts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMJPEGEncodeQVGA measures in-sensor MJPEG on one synthetic QVGA
// frame (the video node's ISA workload).
func BenchmarkMJPEGEncodeQVGA(b *testing.B) {
	g := sensors.NewVideoSynth(320, 240, 1)
	frame := g.NextFrame()
	codec, err := compress.NewFrameCodec(320, 240, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	var encoded int
	for i := 0; i < b.N; i++ {
		enc, err := codec.Encode(frame)
		if err != nil {
			b.Fatal(err)
		}
		encoded = len(enc)
	}
	b.ReportMetric(compress.Ratio(len(frame), encoded), "ratio")
}

// BenchmarkECGDeltaRice measures the biopotential lossless path on one
// minute of ECG.
func BenchmarkECGDeltaRice(b *testing.B) {
	g := sensors.NewECGSynth(250*units.Hertz, 72, 1)
	raw := sensors.QuantizeBits(g.Samples(250*60), 2.0, 12)
	b.SetBytes(int64(len(raw) * 2))
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		enc := compress.RiceEncodeAuto(compress.DeltaInt32(raw))
		size = len(enc)
	}
	b.ReportMetric(compress.Ratio(len(raw)*2, size), "ratio")
}

// BenchmarkRPeakDetector measures the ISA R-peak pipeline on one minute of
// ECG.
func BenchmarkRPeakDetector(b *testing.B) {
	g := sensors.NewECGSynth(250*units.Hertz, 72, 2)
	sig := g.Samples(250 * 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := isa.NewRPeakDetector(250 * units.Hertz)
		for _, s := range sig {
			d.Process(s)
		}
		if len(d.Peaks()) == 0 {
			b.Fatal("no peaks")
		}
	}
}

// BenchmarkBANHour simulates one hour of the two-node ECG comparison —
// the integration workload behind the Fig. 3 cross-check.
func BenchmarkBANHour(b *testing.B) {
	mkNode := func(id int, name string, tr *radio.Transceiver) bannet.NodeConfig {
		return bannet.NodeConfig{
			ID: id, Name: name, Sensor: sensors.ECGPatch(), Policy: isa.StreamAll{},
			Radio: tr, Battery: energy.Fig3Battery(), PacketBits: 1024, PER: 0.01, MaxRetries: 5,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := bannet.Run(bannet.Config{Seed: 1, Nodes: []bannet.NodeConfig{
			mkNode(1, "wir", radio.WiR()),
			mkNode(2, "ble", radio.BLE42()),
		}}, units.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if rep.NodeByName("wir").PacketsDelivered == 0 {
			b.Fatal("no traffic")
		}
	}
}
