// Command partition explores DNN split-computing between a wearable leaf
// node and the on-body hub across links.
//
// Usage:
//
//	partition -model kws -link wir          # per-cut table + optimum
//	partition -model vision -link ble -deadline 50ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wiban/internal/nn"
	"wiban/internal/partition"
	"wiban/internal/radio"
	"wiban/internal/units"
)

func model(name string) (*nn.Sequential, error) {
	switch name {
	case "kws":
		return nn.KWSNet()
	case "ecg":
		return nn.ECGNet()
	case "vision":
		return nn.VisionNet()
	default:
		return nil, fmt.Errorf("unknown model %q (kws|ecg|vision)", name)
	}
}

func link(name string) (*radio.Transceiver, error) {
	switch name {
	case "wir":
		return radio.WiR(), nil
	case "ble":
		return radio.BLE42(), nil
	case "bodywire":
		return radio.BodyWire(), nil
	case "subuw":
		return radio.SubUWrComm(), nil
	default:
		return nil, fmt.Errorf("unknown link %q (wir|ble|bodywire|subuw)", name)
	}
}

func main() {
	var (
		modelName = flag.String("model", "kws", "model: kws|ecg|vision")
		linkName  = flag.String("link", "wir", "link: wir|ble|bodywire|subuw")
		deadline  = flag.Duration("deadline", 0, "optional latency deadline (e.g. 50ms)")
		accel     = flag.Bool("accel", false, "use an ISA accelerator instead of an MCU on the leaf")
	)
	flag.Parse()

	m, err := model(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(2)
	}
	tr, err := link(*linkName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(2)
	}
	leaf := partition.LeafMCU()
	if *accel {
		leaf = partition.LeafAccelerator()
	}

	cuts, err := partition.Evaluate(partition.Config{
		Model: m, Leaf: leaf, Hub: partition.HubSoC(),
		Link: partition.FromTransceiver(tr), BitsPerElement: 8,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "partition:", err)
		os.Exit(1)
	}

	fmt.Print(m.Summary())
	fmt.Printf("\nleaf %s, hub %s, link %s (%v, %v)\n\n",
		leaf.Name, partition.HubSoC().Name, tr.Name, tr.Goodput, tr.EnergyPerGoodBit())
	fmt.Printf("%-4s %12s %12s %14s %14s %12s\n",
		"cut", "leaf MACs", "tx bits", "leaf E/inf", "tx E/inf", "latency")
	for _, c := range cuts {
		fmt.Printf("%-4d %12d %12d %14v %14v %12v\n",
			c.Index, c.LeafMACs, c.TxBits, c.LeafEnergy, c.TxEnergy, c.Latency)
	}

	best, _ := partition.Best(cuts)
	fmt.Printf("\noptimal: %s\n", best.Describe())
	if *deadline > 0 {
		d := units.Duration(deadline.Seconds())
		constrained, err := partition.BestUnderLatency(cuts, d)
		if err != nil {
			fmt.Printf("deadline %v: %v\n", time.Duration(*deadline), err)
		} else {
			fmt.Printf("deadline %v: %s\n", time.Duration(*deadline), constrained.Describe())
		}
	}
	fmt.Println("\npareto front (leaf energy vs latency):")
	for _, c := range partition.Pareto(cuts) {
		fmt.Println("  " + c.Describe())
	}
}
