package wiban

// Benchmark harness: one benchmark per figure/table of the paper, plus
// microbenchmarks of the substrates those figures exercise. Run:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks both regenerate the artifact (so -bench doubles as
// a reproduction run) and report its headline numbers as benchmark
// metrics.

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

// benchTable runs a figure/table generator inside the benchmark loop.
func benchTable(b *testing.B, gen func() (*figures.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1NodePowerBreakdown regenerates Fig. 1 (FIG1).
func BenchmarkFig1NodePowerBreakdown(b *testing.B) { benchTable(b, figures.Fig1) }

// BenchmarkFig2WearableBatteryLife regenerates Fig. 2 (FIG2).
func BenchmarkFig2WearableBatteryLife(b *testing.B) { benchTable(b, figures.Fig2) }

// BenchmarkFig3BatteryLifeVsRate regenerates Fig. 3 (FIG3) and reports the
// perpetual-region boundary as a metric.
func BenchmarkFig3BatteryLifeVsRate(b *testing.B) {
	var boundary units.DataRate
	for i := 0; i < b.N; i++ {
		res, _, err := figures.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		boundary = res.PerpetualBoundary
	}
	b.ReportMetric(float64(boundary), "perpetual-bps")
}

// BenchmarkTableWiRvsBLE regenerates the headline claims table (TAB-A).
func BenchmarkTableWiRvsBLE(b *testing.B) { benchTable(b, figures.TableWiRvsBLE) }

// BenchmarkTableTransceiverSurvey regenerates the §IV-B survey (TAB-B).
func BenchmarkTableTransceiverSurvey(b *testing.B) { benchTable(b, figures.TableTransceivers) }

// BenchmarkTableSecurityBubble regenerates the security table (TAB-C).
func BenchmarkTableSecurityBubble(b *testing.B) { benchTable(b, figures.TableSecurity) }

// BenchmarkTableOffloadSplit regenerates the split-computing table (TAB-D).
func BenchmarkTableOffloadSplit(b *testing.B) { benchTable(b, figures.TableOffload) }

// BenchmarkTablePerpetualHarvest regenerates the harvesting table (TAB-E).
func BenchmarkTablePerpetualHarvest(b *testing.B) { benchTable(b, figures.TableHarvest) }

// BenchmarkTableLatency regenerates the end-to-end AI latency table
// (TAB-F), including the discrete-event cross-check.
func BenchmarkTableLatency(b *testing.B) { benchTable(b, figures.TableLatency) }

// BenchmarkAblationTermination regenerates ABL-1.
func BenchmarkAblationTermination(b *testing.B) { benchTable(b, figures.AblationTermination) }

// BenchmarkAblationCompression regenerates ABL-2 (runs the real codecs).
func BenchmarkAblationCompression(b *testing.B) { benchTable(b, figures.AblationCompression) }

// BenchmarkAblationMAC regenerates ABL-3 (arbitration baselines).
func BenchmarkAblationMAC(b *testing.B) { benchTable(b, figures.AblationMAC) }

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
