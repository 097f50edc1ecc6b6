package main

import (
	"testing"

	"wiban/internal/bannet"
	"wiban/internal/nn"
	"wiban/internal/units"
)

// TestBanConfigValidates asserts the voice node's network passes bannet
// validation at nominal ISA measurements and produces hub inferences.
func TestBanConfigValidates(t *testing.T) {
	kws, err := nn.KWSNet()
	if err != nil {
		t.Fatal(err)
	}
	cfg := banConfig(0.3, 4, kws) // nominal: 30% speech, 4x ADPCM
	cfg.Seed = 17
	sim, err := bannet.NewSim(cfg)
	if err != nil {
		t.Fatalf("example config rejected: %v", err)
	}
	rep, err := sim.Run(2 * units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Nodes {
		if n.Inferences == 0 {
			t.Errorf("node %s produced no hub inferences", n.Name)
		}
	}
}
