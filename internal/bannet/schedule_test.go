package bannet

// The kernel's closed-form tick order (RunInto's frame loop) against an
// event scheduler: the reference below drives the same Sim through
// desim.Simulator, whose queue order — by time, then insertion order —
// is the order the recorded fingerprints were taken under.

import (
	"math"
	"reflect"
	"testing"

	"wiban/internal/desim"
	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/mac"
	"wiban/internal/radio"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// runScheduled is RunInto with the ticks dispatched by desim.Simulator
// instead of the frame loop: one periodic generation source per node
// with output, then the superframe, then one 1 s harvest source per
// harvesting node, all first due one period in.
func runScheduled(s *Sim, span units.Duration, rep *Report) error {
	end, err := s.begin(span, rep)
	if err != nil {
		return err
	}
	kern := desim.New(0)
	for i := range s.states {
		st := &s.states[i]
		out := st.cfg.Policy.OutputRate(st.cfg.Sensor.DataRate())
		if out <= 0 {
			continue
		}
		interval := max(desim.FromSeconds(float64(st.cfg.PacketBits)/float64(out)), desim.Microsecond)
		kern.Periodic(interval, interval, func() {
			if st.dead {
				return
			}
			st.queue.push(packet{created: kern.Now()})
			st.stats.PacketsGenerated++
		})
	}
	kern.Periodic(s.superframe, s.superframe, func() {
		s.now = kern.Now()
		s.frameTick()
	})
	for i := range s.states {
		if s.states[i].cfg.Harvester != nil {
			kern.Periodic(desim.Second, desim.Second, func() { s.harvTick(i) })
		}
	}
	kern.RunUntil(end)
	rep.Events = kern.Executed()
	s.finish(span, end)
	return nil
}

// scheduleSensors are the fuzzed node front ends: each carries a data
// rate that some packet size in schedulePackets divides into a
// superframe or a 1 s interval, so ties between sources occur often.
var scheduleSensors = []*sensors.Sensor{
	sensors.ECGPatch(),   // 3 kbps
	sensors.IMU6Axis(),   // 9.6 kbps
	sensors.PPGRing(),    // 3.2 kbps
	sensors.EMGBand(),    // 12 kbps
	sensors.MicMono(),    // 256 kbps
	sensors.TempSensor(), // 16 bps
}

// schedulePackets are packet sizes that make 30 ms, 100 ms, 250 ms,
// 0.5 s, 1 s and 2 s intervals with the sensors above.
var schedulePackets = []int{256, 320, 360, 960, 1200, 1600, 3000, 3200, 4800, 6000, 6400, 8000}

// scheduleSuperframes are the fuzzed TDMA periods; an index past the end
// takes the superframe from a node's generation interval instead.
var scheduleSuperframes = []units.Duration{
	30 * units.Millisecond, 100 * units.Millisecond, 250 * units.Millisecond,
	units.Second / 3, 500 * units.Millisecond, units.Second,
	1500 * units.Millisecond, 2 * units.Second,
}

// scheduleConfig decodes a fuzz input into a BAN. Each node reads five
// bytes: sensor and radio, packet size, PER and collision PER, flags
// (harvester, drain, inference, retry budget) and battery size. ok is
// false when the input names no node or no usable superframe.
func scheduleConfig(seed int64, sfSel, seriesSel uint8, spec []byte) (cfg Config, ok bool) {
	cfg.Seed = seed
	for i := 0; i+5 <= len(spec) && len(cfg.Nodes) < 4; i += 5 {
		b := spec[i : i+5]
		packetBits := schedulePackets[int(b[1])%len(schedulePackets)]
		if b[1] >= 128 {
			packetBits = 256 + int(b[1]-128)*61
		}
		nc := NodeConfig{
			ID: len(cfg.Nodes) + 1, Name: string(rune('a' + len(cfg.Nodes))),
			Sensor: scheduleSensors[int(b[0]&0x3f)%len(scheduleSensors)], Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.CR2032(),
			PacketBits:   packetBits,
			PER:          float64(b[2]&0x1f) / 40,
			CollisionPER: float64(b[2]>>5) / 10,
			MaxRetries:   int(b[3] >> 4 & 7),
		}
		if b[0]&0x80 != 0 {
			nc.Radio = radio.BLE42()
		}
		if b[0]&0x40 != 0 {
			nc.Policy = isa.Compress{Label: "x4", MeasuredRatio: 4, Power: 20 * units.Microwatt}
		}
		if b[3]&1 != 0 {
			nc.Harvester = energy.Harvesters()[int(b[4])%3]
		}
		if b[3]&2 != 0 {
			// A cell of 2–512 µJ: most nodes die within the span.
			nc.DrainBattery = true
			nc.Battery = tinyBattery(float64(b[4]+1) * 2e-6)
		}
		if b[3]&4 != 0 {
			nc.Inference = &InferenceSpec{Name: "kws", MACs: 200_000 << (b[4] & 7), InputBits: int64(2048 << (b[4] >> 6))}
		}
		cfg.Nodes = append(cfg.Nodes, nc)
	}
	if len(cfg.Nodes) == 0 {
		return cfg, false
	}
	tdma := *mac.DefaultTDMA()
	if k := int(sfSel) % (len(scheduleSuperframes) + len(cfg.Nodes)); k < len(scheduleSuperframes) {
		tdma.Superframe = scheduleSuperframes[k]
	} else {
		// The superframe equals this node's generation interval.
		nc := cfg.Nodes[k-len(scheduleSuperframes)]
		out := nc.Policy.OutputRate(nc.Sensor.DataRate())
		tdma.Superframe = units.Duration(float64(nc.PacketBits) / float64(out))
		if tdma.Superframe < 10*units.Millisecond || tdma.Superframe > 3*units.Second {
			return cfg, false
		}
	}
	cfg.TDMA = &tdma
	switch seriesSel % 4 {
	case 1:
		cfg.SeriesEvery = 700 * units.Millisecond
	case 2:
		cfg.SeriesEvery = units.Second
	case 3:
		cfg.SeriesEvery = units.Millisecond // quantized up to every superframe
	}
	return cfg, true
}

// sameReport reports whether two reports are equal, comparing Series
// floats bit for bit so NaN gap samples compare equal.
func sameReport(a, b *Report) bool {
	if len(a.Series) != len(b.Series) {
		return false
	}
	for i := range a.Series {
		p, q := a.Series[i], b.Series[i]
		if p.Node != q.Node || p.TimeMS != q.TimeMS || p.QueueDepth != q.QueueDepth ||
			math.Float64bits(p.Charge) != math.Float64bits(q.Charge) ||
			math.Float64bits(p.LinkPER) != math.Float64bits(q.LinkPER) ||
			math.Float64bits(p.CollisionRate) != math.Float64bits(q.CollisionRate) {
			return false
		}
	}
	x, y := *a, *b
	x.Series, y.Series = nil, nil
	return reflect.DeepEqual(x, y)
}

// FuzzKernelSchedule requires the frame loop and the event-scheduler
// reference to produce equal Reports for random node sets, packet sizes,
// PER, harvesters, battery drain with tiny cells, inference, series
// cadences, superframes (1 s and node intervals included, so sources
// tie) and spans of 1 ms to 20 s.
func FuzzKernelSchedule(f *testing.F) {
	// seed, superframe, series, span (ms), five bytes per node.
	f.Add(int64(42), uint8(1), uint8(0), uint16(3000), []byte{1, 3, 2, 0x51, 0, 3, 4, 0, 0x32, 30})                 // 100 ms superframe = both intervals, a death
	f.Add(int64(7), uint8(5), uint8(1), uint16(9000), []byte{0, 6, 1, 0x23, 20, 2, 7, 3, 0x21, 9})                  // 1 s superframe = intervals = harvest period
	f.Add(int64(3), uint8(8), uint8(2), uint16(5000), []byte{3, 9, 4, 0x43, 40, 1, 3, 0xe2, 0x33, 200})             // superframe = node a's 0.5 s interval
	f.Add(int64(11), uint8(7), uint8(3), uint16(12345), []byte{4, 200, 0x62, 0x37, 5, 0x82, 11, 9, 0x12, 1})        // 2 s superframe, mic with inference, BLE
	f.Add(int64(5), uint8(0), uint8(0), uint16(2500), []byte{0xc4, 0, 10, 0x76, 60, 3, 2, 0, 0x03, 100})            // 30 ms superframe = EMG interval, 4 ms mic
	f.Add(int64(9), uint8(3), uint8(1), uint16(7001), []byte{2, 7, 0, 0x03, 3, 5, 0, 0, 0x01, 4, 0, 4, 5, 0x10, 0}) // 333 ms superframe, 16 s interval
	f.Add(int64(13), uint8(6), uint8(0), uint16(10000), []byte{2, 11, 1, 0x01, 2, 0, 9, 2, 0x13, 50})               // 1.5 s superframe, two harvests per frame
	f.Fuzz(func(t *testing.T, seed int64, sfSel, seriesSel uint8, spanMS uint16, spec []byte) {
		cfg, ok := scheduleConfig(seed, sfSel, seriesSel, spec)
		if !ok {
			return
		}
		span := units.Duration(1+int(spanMS)%20000) * units.Millisecond
		loop, err := NewSim(cfg)
		if err != nil {
			return // demands that do not fit the superframe
		}
		ref, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got, want Report
		if err := loop.RunInto(span, &got); err != nil {
			t.Fatal(err)
		}
		if err := runScheduled(ref, span, &want); err != nil {
			t.Fatal(err)
		}
		if !sameReport(&got, &want) {
			t.Fatalf("frame loop diverged from the event scheduler (superframe %v, span %v):\nloop      %+v\nscheduler %+v",
				cfg.TDMA.Superframe, span, got, want)
		}
	})
}

// BenchmarkSimRunInto times one 60 s run of a warmed Sim on a three-node
// BAN (ECG patch, harvesting IMU band, compressed voice microphone, all
// on Wi-R) — the fleet engine's per-wearer kernel call, without scenario
// generation or aggregation.
func BenchmarkSimRunInto(b *testing.B) {
	cfg := Config{Seed: 1, Nodes: []NodeConfig{
		{ID: 1, Name: "ecg-patch", Sensor: sensors.ECGPatch(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.Fig3Battery(),
			PacketBits: 1024, PER: 0.01, MaxRetries: 5},
		{ID: 2, Name: "imu-band", Sensor: sensors.IMU6Axis(), Policy: isa.StreamAll{},
			Radio: radio.WiR(), Battery: energy.CR2032(), Harvester: energy.IndoorPV(),
			PacketBits: 1024, PER: 0.02, MaxRetries: 5},
		{ID: 3, Name: "voice-mic", Sensor: sensors.MicMono(),
			Policy: isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt},
			Radio:  radio.WiR(), Battery: energy.Fig3Battery(),
			PacketBits: 4096, PER: 0.02, MaxRetries: 4},
	}}
	sim, err := NewSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var rep Report
	for i := 0; i < 3; i++ {
		if err := sim.RunInto(60*units.Second, &rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunInto(60*units.Second, &rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Events), "events/op")
}
