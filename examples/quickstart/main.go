// Quickstart: compose a human-inspired body-area network, check it against
// the shared Wi-R medium, and project every node's battery life.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wiban/internal/energy"
	"wiban/internal/iob"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// buildNetwork composes the quickstart BAN. The hub is the "wearable
// brain": daily-charged, carries the NPU. Three leaf nodes hang off it:
// the ECG patch streams raw samples; the microphone compresses with ADPCM
// and offloads keyword spotting to the hub; the camera ships MJPEG frames
// for hub-side vision.
func buildNetwork() (*iob.Network, error) {
	kws, err := nn.KWSNet()
	if err != nil {
		return nil, err
	}
	return &iob.Network{
		Name: "quickstart BAN",
		Hub:  iob.DefaultHub(),
		Nodes: []*iob.NodeDesign{
			iob.HumanInspiredNode("ecg-patch", sensors.ECGPatch(), nil, nil),
			iob.HumanInspiredNode("voice-mic", sensors.MicMono(),
				isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
				&iob.Workload{Model: kws, PerSecond: 2}),
			iob.HumanInspiredNode("camera", sensors.CameraQVGA(),
				isa.Compress{Label: "MJPEG q50", MeasuredRatio: 8, Power: 500 * units.Microwatt},
				nil),
		},
	}, nil
}

func main() {
	net, err := buildNetwork()
	if err != nil {
		log.Fatal(err)
	}

	// 1. Does the network fit the 4 Mbps body medium?
	if err := net.Schedulable(nil); err != nil {
		log.Fatalf("network does not fit the medium: %v", err)
	}
	summary, err := net.Summary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(summary)

	// 2. Where does each node land on the paper's Fig. 3 projection?
	proj := iob.NewFig3Projector()
	fmt.Printf("%-12s %-12s %-12s %-12s %s\n", "node", "link rate", "node power", "battery life", "class")
	for _, d := range net.Nodes {
		b, err := d.AverageBreakdown()
		if err != nil {
			log.Fatal(err)
		}
		life := proj.Battery.Lifetime(b.Total())
		class := "recharge"
		if life >= energy.PerpetualLife {
			class = "PERPETUAL (>1 yr)"
		} else if life >= units.Week {
			class = "all-week+"
		} else if life >= units.Day {
			class = "all-day+"
		}
		fmt.Printf("%-12s %-12v %-12v %-12v %s\n", d.Name, d.LinkRate(), b.Total(), life, class)
	}

	fmt.Printf("\nperpetual region boundary on Wi-R: %v\n", proj.PerpetualBoundary())
}
