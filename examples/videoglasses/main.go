// Video glasses: a first-person camera node (smart-glasses class, §II-C).
//
// The camera cannot stream raw pixels — QVGA @ 15 fps is 9.2 Mbps against
// Wi-R's 3.9 Mbps goodput — so the node runs the MJPEG codec in-sensor.
// This example measures real compression on synthetic frames at several
// qualities, picks operating points that fit the medium, and projects the
// node's battery life; hub-side scene classification runs on the offloaded
// frames.
//
// Run with: go run ./examples/videoglasses
package main

import (
	"fmt"
	"log"

	"wiban/internal/bannet"
	"wiban/internal/compress"
	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// glassesConfig is the glasses BAN as a simulatable network: the MJPEG
// camera at the measured compression ratio sharing the Wi-R medium with
// the three companion wearables the coexistence check assumes.
func glassesConfig(mjpegRatio float64) bannet.Config {
	return bannet.Config{Nodes: []bannet.NodeConfig{
		{ID: 1, Name: "ecg", Sensor: sensors.ECGPatch(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.Fig3Battery(),
			PacketBits: 1024, PER: 0.01, MaxRetries: 5},
		{ID: 2, Name: "imu", Sensor: sensors.IMU6Axis(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.CR2032(),
			PacketBits: 1024, PER: 0.02, MaxRetries: 5},
		{ID: 3, Name: "audio", Sensor: sensors.MicMono(),
			Policy: isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
			Radio:  radio.WiR(), Battery: energy.Fig3Battery(),
			PacketBits: 4096, PER: 0.02, MaxRetries: 4},
		{ID: 4, Name: "glasses", Sensor: sensors.CameraQVGA(),
			Policy: isa.Compress{Label: "MJPEG", MeasuredRatio: mjpegRatio, Power: 500 * units.Microwatt},
			Radio:  radio.WiR(), Battery: energy.LiPo(300),
			PacketBits: 16384, PER: 0.02, MaxRetries: 4},
	}}
}

func main() {
	cam := sensors.CameraQVGA()
	wir := radio.WiR()
	batt := energy.Fig3Battery()

	fmt.Printf("raw camera stream: %v — %.1fx over the Wi-R goodput (%v)\n\n",
		cam.DataRate(), float64(cam.DataRate())/float64(wir.Goodput), wir.Goodput)

	// --- Measure MJPEG on synthetic frames --------------------------------
	fmt.Printf("%-8s %10s %10s %12s %14s %14s %8s\n",
		"quality", "ratio", "PSNR", "link rate", "node power", "battery life", "fits?")
	type point struct {
		q     int
		rate  units.DataRate
		power units.Power
	}
	var feasible []point
	for _, q := range []int{20, 35, 50, 70, 85} {
		g := sensors.NewVideoSynth(320, 240, 21)
		codec, err := compress.NewFrameCodec(320, 240, q)
		if err != nil {
			log.Fatal(err)
		}
		var rawBits, encBits int
		var psnr float64
		const frames = 4
		for i := 0; i < frames; i++ {
			f := g.NextFrame()
			enc, err := codec.Encode(f)
			if err != nil {
				log.Fatal(err)
			}
			dec, err := codec.Decode(enc)
			if err != nil {
				log.Fatal(err)
			}
			rawBits += len(f) * 8
			encBits += len(enc) * 8
			psnr += compress.PSNR(f, dec)
		}
		psnr /= frames
		ratio := float64(rawBits) / float64(encBits)
		rate := units.DataRate(float64(cam.DataRate()) / ratio)
		fits := rate <= wir.Goodput
		var total units.Power
		life := "n/a"
		if fits {
			comm, err := wir.AveragePower(rate, 10)
			if err != nil {
				log.Fatal(err)
			}
			total = cam.AFEPower + 500*units.Microwatt + comm
			life = batt.Lifetime(total).String()
			feasible = append(feasible, point{q, rate, total})
		}
		fmt.Printf("q%-7d %9.1fx %7.1f dB %12v %14v %14s %8v\n",
			q, ratio, psnr, rate, total, life, fits)
	}
	if len(feasible) == 0 {
		log.Fatal("no feasible MJPEG operating point")
	}

	// --- Does the chosen stream coexist with other wearables? -------------
	// One spec feeds both checks: the simulator builds its TDMA schedule
	// from the same glassesConfig it then runs, so the utilization figure
	// and the delivery cross-check cannot drift apart.
	op := feasible[len(feasible)-1] // highest feasible quality
	cfg := glassesConfig(float64(cam.DataRate()) / float64(op.rate))
	cfg.Seed = 23
	sim, err := bannet.NewSim(cfg)
	if err != nil {
		log.Fatalf("TDMA: %v", err)
	}
	fmt.Printf("\nchosen q%d stream shares the medium with 3 other nodes: utilization %.0f%%\n",
		op.q, sim.Schedule().Utilization()*100)

	rep, err := sim.Run(units.Minute)
	if err != nil {
		log.Fatal(err)
	}
	g := rep.NodeByName("glasses")
	fmt.Printf("simulated 1 min: glasses deliver %.1f%% of frames, p99 frame latency %v\n",
		g.DeliveryRate()*100, g.LatencyP99)

	// --- Hub-side vision ----------------------------------------------------
	vision, err := nn.VisionNet()
	if err != nil {
		log.Fatal(err)
	}
	hubMACs := float64(vision.TotalMACs()) * 15 // classify every frame
	fmt.Printf("hub runs %s on every frame: %.0f MMAC/s on the wearable brain,\n",
		vision.Name, hubMACs/1e6)
	fmt.Printf("zero inference MACs on the glasses — the glasses carry only sensor+ISA+Wi-R (%v).\n",
		op.power)
}
