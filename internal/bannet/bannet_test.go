package bannet

import (
	"math"
	"testing"

	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/mac"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// ecgNode builds an ECG patch node on the given transceiver.
func ecgNode(id int, name string, tr *radio.Transceiver) NodeConfig {
	return NodeConfig{
		ID: id, Name: name,
		Sensor:     sensors.ECGPatch(),
		Policy:     isa.StreamAll{},
		Radio:      tr,
		Battery:    energy.Fig3Battery(),
		PacketBits: 1024,
		PER:        0.01,
		MaxRetries: 5,
	}
}

func TestWiRECGNodeIsPerpetual(t *testing.T) {
	// The paper's headline: a biopotential node streaming over Wi-R lives
	// in the perpetual region (> 1 year on 1000 mAh).
	rep, err := Run(Config{Seed: 1, Nodes: []NodeConfig{ecgNode(1, "ecg-wir", radio.WiR())}},
		units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n := rep.NodeByName("ecg-wir")
	if n == nil {
		t.Fatal("node missing from report")
	}
	if n.AvgPower > 50*units.Microwatt {
		t.Errorf("Wi-R ECG node avg power = %v, want µW class", n.AvgPower)
	}
	if !n.Perpetual {
		t.Errorf("Wi-R ECG node not perpetual (life %v)", n.ProjectedLife)
	}
	if n.DeliveryRate() < 0.99 {
		t.Errorf("delivery rate %.3f, want ≈ 1", n.DeliveryRate())
	}
}

func TestWiRBeatsBLEOnSameWorkload(t *testing.T) {
	cfg := Config{Seed: 2, Nodes: []NodeConfig{
		ecgNode(1, "ecg-wir", radio.WiR()),
		ecgNode(2, "ecg-ble", radio.BLE42()),
	}}
	rep, err := Run(cfg, units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	wir := rep.NodeByName("ecg-wir")
	ble := rep.NodeByName("ecg-ble")
	ratio := float64(ble.AvgPower) / float64(wir.AvgPower)
	if ratio < 5 {
		t.Errorf("BLE/WiR node power ratio = %.1f (BLE %v, WiR %v), want ≥ 5",
			ratio, ble.AvgPower, wir.AvgPower)
	}
	if ble.ProjectedLife >= wir.ProjectedLife {
		t.Error("BLE node should have shorter projected life")
	}
}

func TestTrafficAccountingIdentity(t *testing.T) {
	cfg := Config{Seed: 3, Nodes: []NodeConfig{
		{
			ID: 1, Name: "lossy",
			Sensor:     sensors.MicMono(),
			Policy:     isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
			Radio:      radio.WiR(),
			Battery:    energy.CR2032(),
			PacketBits: 4096,
			PER:        0.3,
			MaxRetries: 2,
		},
	}}
	rep, err := Run(cfg, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	n := &rep.Nodes[0]
	if n.PacketsGenerated == 0 {
		t.Fatal("no traffic generated")
	}
	// Delivered + dropped + still-queued == generated; we can't see the
	// queue here, so delivered+dropped must not exceed generated and must
	// cover most of it after 10 minutes.
	done := n.PacketsDelivered + n.PacketsDropped
	if done > n.PacketsGenerated {
		t.Errorf("delivered %d + dropped %d exceeds generated %d",
			n.PacketsDelivered, n.PacketsDropped, n.PacketsGenerated)
	}
	if float64(done) < 0.95*float64(n.PacketsGenerated) {
		t.Errorf("only %d of %d packets resolved", done, n.PacketsGenerated)
	}
	// With PER 0.3 there must be retries: attempts strictly exceed
	// delivered+dropped.
	if n.Transmissions <= done {
		t.Errorf("transmissions %d should exceed resolved packets %d", n.Transmissions, done)
	}
	// Some loss must occur with only 2 retries at PER 0.3.
	if n.PacketsDropped == 0 {
		t.Error("expected drops at PER 0.3 with 2 retries")
	}
	if rep.HubRxBits != n.BitsDelivered {
		t.Errorf("hub bits %d ≠ delivered bits %d", rep.HubRxBits, n.BitsDelivered)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	rep, err := Run(Config{Seed: 4, Nodes: []NodeConfig{ecgNode(1, "ecg", radio.WiR())}},
		30*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	n := &rep.Nodes[0]
	if n.LatencyP50 <= 0 || n.LatencyP99 < n.LatencyP50 {
		t.Errorf("latency percentiles inconsistent: p50 %v p99 %v", n.LatencyP50, n.LatencyP99)
	}
	// A packet waits at most ~one superframe plus queueing: p50 under
	// 500 ms for a lightly loaded 100 ms superframe.
	if n.LatencyP50 > 500*units.Millisecond {
		t.Errorf("p50 latency %v implausibly high", n.LatencyP50)
	}
}

func TestDeterministicReplay(t *testing.T) {
	mk := func() Config {
		return Config{Seed: 42, Nodes: []NodeConfig{
			ecgNode(1, "a", radio.WiR()),
			{
				ID: 2, Name: "b",
				Sensor:     sensors.IMU6Axis(),
				Policy:     isa.StreamAll{},
				Radio:      radio.WiR(),
				Battery:    energy.CR2032(),
				Harvester:  energy.IndoorPV(),
				PacketBits: 1024,
				PER:        0.05,
				MaxRetries: 3,
			},
		}}
	}
	a, err := Run(mk(), units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(), units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.PacketsDelivered != y.PacketsDelivered || x.Transmissions != y.Transmissions ||
			x.TotalEnergy() != y.TotalEnergy() || x.Harvested != y.Harvested {
			t.Fatalf("same seed diverged on node %s", x.Name)
		}
	}
	c, _ := Run(Config{Seed: 43, Nodes: mk().Nodes}, units.Hour)
	if c.Nodes[1].Harvested == a.Nodes[1].Harvested {
		t.Error("different seeds produced identical harvest")
	}
}

func TestHarvestedNodeEnergyNeutral(t *testing.T) {
	// An IMU node under indoor PV: consumption ~30-40 µW vs typ 50 µW
	// harvest → energy-neutral (perpetual even without the 1-year rule).
	cfg := Config{Seed: 5, Nodes: []NodeConfig{{
		ID: 1, Name: "imu-harvested",
		Sensor:     sensors.IMU6Axis(),
		Policy:     isa.StreamAll{},
		Radio:      radio.WiR(),
		Battery:    energy.CR2032(),
		Harvester:  energy.IndoorPV(),
		PacketBits: 1024,
		PER:        0.01,
		MaxRetries: 3,
	}}}
	rep, err := Run(cfg, units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n := &rep.Nodes[0]
	if !n.Perpetual {
		t.Errorf("harvested IMU node not perpetual: power %v, harvested %v over %v",
			n.AvgPower, n.Harvested, rep.Duration)
	}
	if n.Harvested <= 0 {
		t.Error("no energy harvested")
	}
}

func TestEnergyBreakdownSensible(t *testing.T) {
	rep, err := Run(Config{Seed: 6, Nodes: []NodeConfig{ecgNode(1, "ecg", radio.WiR())}},
		units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	n := &rep.Nodes[0]
	// For a 3 kbps node on Wi-R, sensing dominates communication.
	comm := n.TxEnergy + n.SyncEnergy + n.SleepEnergy
	if comm >= n.SenseEnergy {
		t.Errorf("comm energy %v should be below sensing %v on Wi-R", comm, n.SenseEnergy)
	}
	// Nothing is free.
	if n.SenseEnergy <= 0 || n.TxEnergy <= 0 || n.SyncEnergy <= 0 {
		t.Error("energy components missing")
	}
	want := float64(n.SenseEnergy + n.ISAEnergy + n.TxEnergy + n.SyncEnergy + n.SleepEnergy)
	if math.Abs(float64(n.TotalEnergy())-want) > 1e-12 {
		t.Error("TotalEnergy does not sum components")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, units.Hour); err == nil {
		t.Error("no nodes should fail")
	}
	if _, err := Run(Config{Nodes: []NodeConfig{{Name: "x"}}}, units.Hour); err == nil {
		t.Error("incomplete node should fail")
	}
	n := ecgNode(1, "bad-per", radio.WiR())
	n.PER = 1.0
	if _, err := Run(Config{Nodes: []NodeConfig{n}}, units.Hour); err == nil {
		t.Error("PER=1 should fail")
	}
	over := NodeConfig{
		ID: 1, Name: "fast",
		Sensor:     sensors.Camera720p(), // 221 Mbps raw
		Policy:     isa.StreamAll{},
		Radio:      radio.WiR(),
		Battery:    energy.Fig3Battery(),
		PacketBits: 16384,
	}
	if _, err := Run(Config{Nodes: []NodeConfig{over}}, units.Hour); err == nil {
		t.Error("rate beyond goodput should fail")
	}
	if _, err := Run(Config{Nodes: []NodeConfig{ecgNode(1, "x", radio.WiR())}}, 0); err == nil {
		t.Error("zero span should fail")
	}
	// A schedule that fits a sub-nanosecond superframe on an absurdly
	// fast medium still has no whole time step to advance by.
	tiny := &mac.TDMA{Superframe: 0.4e-9, LinkRate: 1e15}
	if _, err := Run(Config{TDMA: tiny, Nodes: []NodeConfig{ecgNode(1, "x", radio.WiR())}}, units.Second); err == nil {
		t.Error("sub-nanosecond superframe should fail")
	}
}

func TestMultiNodeScheduleSharing(t *testing.T) {
	// Four heterogeneous nodes share the 4 Mbps medium; all must deliver.
	cfg := Config{Seed: 7, Nodes: []NodeConfig{
		ecgNode(1, "ecg", radio.WiR()),
		{
			ID: 2, Name: "imu", Sensor: sensors.IMU6Axis(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.CR2032(), PacketBits: 1024, PER: 0.02, MaxRetries: 3,
		},
		{
			ID: 3, Name: "mic", Sensor: sensors.MicMono(),
			Policy: isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
			Radio:  radio.WiR(), Battery: energy.Fig3Battery(), PacketBits: 4096, PER: 0.02, MaxRetries: 3,
		},
		{
			ID: 4, Name: "cam", Sensor: sensors.CameraQVGA(),
			Policy: isa.Compress{Label: "MJPEG q50", MeasuredRatio: 8, Power: 500 * units.Microwatt},
			Radio:  radio.WiR(), Battery: energy.LiPo(300), PacketBits: 16384, PER: 0.02, MaxRetries: 3,
		},
	}}
	rep, err := Run(cfg, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schedule.Utilization() >= 1 {
		t.Errorf("schedule utilization %.2f ≥ 1", rep.Schedule.Utilization())
	}
	for _, n := range rep.Nodes {
		if n.DeliveryRate() < 0.95 {
			t.Errorf("%s: delivery %.3f, want ≥ 0.95", n.Name, n.DeliveryRate())
		}
	}
	// The camera node's life is sensor-bound, far below the ECG node's.
	cam := rep.NodeByName("cam")
	ecg := rep.NodeByName("ecg")
	if cam.ProjectedLife >= ecg.ProjectedLife {
		t.Error("camera node should die long before ECG node")
	}
	if rep.NodeByName("nope") != nil {
		t.Error("unknown node lookup should be nil")
	}
}

// TestCollisionPERDegradesLinkButNotSchedule: co-channel collision loss
// (cross-wearer interference the TDMA scheduler cannot see) must cut
// delivery and raise retransmissions at every attempt, while leaving the
// schedule — which is provisioned from the link PER alone — untouched.
func TestCollisionPERDegradesLinkButNotSchedule(t *testing.T) {
	quiet := ecgNode(1, "ecg", radio.BLE42())
	crowded := quiet
	crowded.CollisionPER = 0.6

	simQ, err := NewSim(Config{Seed: 31, Nodes: []NodeConfig{quiet}})
	if err != nil {
		t.Fatal(err)
	}
	simC, err := NewSim(Config{Seed: 31, Nodes: []NodeConfig{crowded}})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := simQ.Schedule().SlotFor(1), simC.Schedule().SlotFor(1); a.CapacityBits != b.CapacityBits {
		t.Fatalf("collision PER leaked into TDMA provisioning: slot %d vs %d bits",
			a.CapacityBits, b.CapacityBits)
	}

	repQ, err := simQ.Run(10 * units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := simC.Run(10 * units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	q, c := repQ.NodeByName("ecg"), repC.NodeByName("ecg")
	if c.DeliveryRate() >= q.DeliveryRate() {
		t.Errorf("delivery under 60%% collisions (%.3f) not below quiet channel (%.3f)",
			c.DeliveryRate(), q.DeliveryRate())
	}
	if c.Transmissions <= q.Transmissions {
		t.Errorf("collisions should force retransmissions: %d attempts vs %d quiet",
			c.Transmissions, q.Transmissions)
	}
	if c.TxEnergy <= q.TxEnergy {
		t.Errorf("retransmissions should cost energy: %v vs %v", c.TxEnergy, q.TxEnergy)
	}
}

// TestCollisionPERValidation: the combined loss domain is guarded like
// PER itself.
func TestCollisionPERValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.0, 1.5} {
		n := ecgNode(1, "x", radio.WiR())
		n.CollisionPER = bad
		if _, err := Run(Config{Nodes: []NodeConfig{n}}, units.Hour); err == nil {
			t.Errorf("CollisionPER=%v accepted", bad)
		}
	}
}
