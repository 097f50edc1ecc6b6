// Command iobsim runs a discrete-event simulation of a human-inspired
// body-area network and reports per-node traffic, energy and battery-life
// projections.
//
// Usage:
//
//	iobsim -dur 3600 -seed 42          # one hour, default 4-node BAN
//	iobsim -dur 600 -ble               # same nodes forced onto BLE radios
package main

import (
	"flag"
	"fmt"
	"os"

	"wiban/internal/bannet"
	"wiban/internal/energy"
	"wiban/internal/fleet"
	"wiban/internal/isa"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// scenario builds the default heterogeneous BAN: fleet.DefaultBase's ECG
// patch, IMU and ADPCM voice mic, plus a QVGA camera with MJPEG on Wi-R,
// or the three base nodes on BLE 4.2.
func scenario(useBLE bool) bannet.Config {
	cfg := fleet.DefaultBase()
	if useBLE {
		for i := range cfg.Nodes {
			cfg.Nodes[i].Radio = radio.BLE42()
		}
		return cfg
	}
	// The MJPEG camera stream (1.15 Mbps) only fits the Wi-R medium.
	cfg.Nodes = append(cfg.Nodes, bannet.NodeConfig{
		ID: 4, Name: "camera", Sensor: sensors.CameraQVGA(),
		Policy: isa.Compress{Label: "MJPEG q50", MeasuredRatio: 8, Power: 500 * units.Microwatt},
		Radio:  radio.WiR(), Battery: energy.LiPo(300),
		PacketBits: 16384, PER: 0.02, MaxRetries: 4,
	})
	return cfg
}

func main() {
	var (
		durSec = flag.Float64("dur", 3600, "simulated span in seconds")
		seed   = flag.Int64("seed", 42, "simulation seed")
		useBLE = flag.Bool("ble", false, "replace Wi-R radios with BLE 4.2")
	)
	flag.Parse()

	cfg := scenario(*useBLE)
	cfg.Seed = *seed
	rep, err := bannet.Run(cfg, units.Duration(*durSec))
	if err != nil {
		fmt.Fprintf(os.Stderr, "iobsim: %v\n", err)
		os.Exit(1)
	}

	tech := "Wi-R"
	if *useBLE {
		tech = "BLE 4.2"
	}
	fmt.Printf("BAN simulation: %v simulated on %s (%d events, utilization %.1f%%)\n\n",
		rep.Duration, tech, rep.Events, rep.Schedule.Utilization()*100)
	fmt.Printf("%-12s %9s %9s %7s %10s %12s %12s %10s %10s %5s\n",
		"node", "delivered", "dropped", "deliv%", "p50 lat", "avg power", "life", "p99 lat", "harvested", "perp")
	for _, n := range rep.Nodes {
		fmt.Printf("%-12s %9d %9d %6.1f%% %10v %12v %12v %10v %10v %5v\n",
			n.Name, n.PacketsDelivered, n.PacketsDropped, n.DeliveryRate()*100,
			n.LatencyP50, n.AvgPower, n.ProjectedLife, n.LatencyP99, n.Harvested, n.Perpetual)
	}
	fmt.Printf("\nhub: received %.2f MB, rx energy %v\n",
		float64(rep.HubRxBits)/8e6, rep.HubRxEnergy)
}
