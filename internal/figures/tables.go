package figures

import (
	"fmt"

	"wiban/internal/channel"
	"wiban/internal/compress"
	"wiban/internal/energy"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/partition"
	"wiban/internal/radio"
	"wiban/internal/security"
	"wiban/internal/sensors"
	"wiban/internal/units"
)

// radioBLE returns the BLE baseline used across comparisons.
func radioBLE() *radio.Transceiver { return radio.BLE42() }

// TableWiRvsBLE regenerates the paper's headline comparison (TAB-A):
// ">10× faster than BLE, <100× the power", plus the channel-geometry
// argument (1–2 m body channel vs 5–10 m+ radiation).
func TableWiRvsBLE() (*Table, error) {
	wir, ble := radio.WiR(), radioBLE()
	eqs := channel.DefaultEQSBody()
	rf := channel.DefaultBLEPath()
	assess := security.Assess()

	row := func(metric, w, b, note string) []string { return []string{metric, w, b, note} }
	t := &Table{
		ID:     "TAB-A",
		Title:  "Wi-R vs BLE (paper §I, §III-B claims)",
		Header: []string{"metric", "Wi-R (EQS-HBC)", "BLE 4.2", "paper claim"},
	}
	rateRatio := float64(wir.Goodput) / float64(ble.Goodput)
	energyRatio := float64(ble.EnergyPerGoodBit()) / float64(wir.EnergyPerGoodBit())
	t.Rows = append(t.Rows,
		row("application goodput", wir.Goodput.String(), ble.Goodput.String(),
			fmt.Sprintf(">10x faster (measured %.1fx)", rateRatio)),
		row("energy per delivered bit", wir.EnergyPerGoodBit().String(), ble.EnergyPerGoodBit().String(),
			fmt.Sprintf("<100x lower power (measured %.0fx)", energyRatio)),
		row("active radio power", wir.ActiveTX.String(), ble.ActiveTX.String(),
			"RF burns 1-10 mW+; EQS stays in uW class"),
		row("on-body channel gain @1.5 m",
			fmt.Sprintf("%.1f dB", eqs.GainAtDB(21*units.Megahertz, 1.5*units.Meter)),
			fmt.Sprintf("%.1f dB", rf.GainDB(1.5*units.Meter)),
			"body absorbs RF; EQS rides it"),
		row("signal containment (intercept range)",
			assess.EQSRange.String(), assess.RFRange.String(),
			"personal bubble vs room-scale radiation"),
	)
	if rateRatio < 10 || energyRatio < 100 {
		return nil, fmt.Errorf("figures: headline claim violated (rate %.1fx, energy %.0fx)",
			rateRatio, energyRatio)
	}
	return t, nil
}

// TableTransceivers regenerates the §IV-B HBC transceiver survey (TAB-B).
func TableTransceivers() (*Table, error) {
	t := &Table{
		ID:    "TAB-B",
		Title: "Transceiver survey (paper §IV-B cited silicon + BLE baselines)",
		Header: []string{"design", "technology", "goodput", "energy/bit",
			"active power", "sleep power"},
	}
	for _, tr := range radio.Catalog() {
		t.Rows = append(t.Rows, []string{
			tr.Name, tr.Tech.String(), tr.Goodput.String(),
			tr.EnergyPerGoodBit().String(), tr.ActiveTX.String(), tr.Sleep.String(),
		})
	}
	t.Notes = append(t.Notes,
		"cited: BodyWire 6.3 pJ/b @ 30 Mb/s (JSSC'19); Sub-µWrComm 415 nW @ 1-10 kb/s (JSSC'21); Wi-R ~100 pJ/b @ 4 Mb/s (white paper)")
	return t, nil
}

// TableSecurity regenerates the physical-security comparison (TAB-C).
func TableSecurity() (*Table, error) {
	a := security.Assess()
	eqs := channel.DefaultEQSBody()
	t := &Table{
		ID:     "TAB-C",
		Title:  "Physical security: personal bubble vs room-scale radiation",
		Header: []string{"quantity", "EQS-HBC (Wi-R)", "RF (BLE)"},
	}
	t.Rows = append(t.Rows,
		[]string{"intercept range (capable sniffer)", a.EQSRange.String(), a.RFRange.String()},
		[]string{"attack surface area ratio", "1x", fmt.Sprintf("%.0fx", a.BubbleAreaRatio())},
	)
	for _, d := range []units.Distance{5 * units.Centimeter, 15 * units.Centimeter, 1 * units.Meter, 5 * units.Meter} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("leakage vs on-body @ %v", d),
			fmt.Sprintf("%.1f dB", eqs.LeakageGainDB(21*units.Megahertz, d)-eqs.GainDB(21*units.Megahertz)),
			"0 dB (no containment)",
		})
	}
	t.Notes = append(t.Notes, "Das et al. Sci.Rep.'19 measured EQS-HBC interception collapsing within ~0.15 m")
	return t, nil
}

// TableOffload regenerates the split-computing comparison (TAB-D): for
// each workload, the optimal partition under BLE vs Wi-R and the leaf-side
// consequences.
func TableOffload() (*Table, error) {
	models, err := nn.Zoo()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "TAB-D",
		Title: "DNN split computing: optimal cut and leaf energy per inference",
		Header: []string{"model", "link", "best cut", "leaf MACs", "tx bits",
			"leaf energy/inf", "latency", "vs all-local"},
	}
	for _, m := range models {
		local := int64(0)
		for _, tr := range []*radio.Transceiver{radioBLE(), radio.WiR(), radio.BodyWire()} {
			cuts, err := partition.Evaluate(partition.Config{
				Model: m, Leaf: partition.LeafMCU(), Hub: partition.HubSoC(),
				Link: partition.FromTransceiver(tr), BitsPerElement: 8,
			})
			if err != nil {
				return nil, err
			}
			best, err := partition.Best(cuts)
			if err != nil {
				return nil, err
			}
			allLocal := cuts[len(cuts)-1]
			local = allLocal.LeafMACs
			t.Rows = append(t.Rows, []string{
				m.Name, tr.Name,
				fmt.Sprintf("%d/%d", best.Index, m.NumLayers()),
				fmt.Sprintf("%d", best.LeafMACs),
				fmt.Sprintf("%d", best.TxBits),
				best.LeafEnergy.String(),
				best.Latency.String(),
				fmt.Sprintf("%.2fx cheaper", float64(allLocal.LeafEnergy)/float64(best.LeafEnergy)),
			})
		}
		_ = local
	}
	t.Notes = append(t.Notes,
		"cut 0 = leaf transmits raw input (no leaf CPU needed) — the human-inspired architecture",
		"with BLE the optimum stays local (the paper: 'no alternative but on-board computing')")
	return t, nil
}

// TableHarvest regenerates the perpetual-with-harvesting feasibility table
// (TAB-E): node classes against the §V 10–200 µW indoor envelope.
func TableHarvest() (*Table, error) {
	type nodeCase struct {
		name   string
		sensor *sensors.Sensor
		policy isa.Policy
	}
	cases := []nodeCase{
		{"temperature", sensors.TempSensor(), isa.StreamAll{}},
		{"ECG patch", sensors.ECGPatch(), isa.StreamAll{}},
		{"ECG patch + R-peak gating", sensors.ECGPatch(),
			isa.EventGated{Label: "R-peak", EventsPerSecond: 1.2,
				Window: 300 * units.Millisecond, Heartbeat: 100, Power: 15 * units.Microwatt}},
		{"IMU", sensors.IMU6Axis(), isa.StreamAll{}},
		{"EEG headband", sensors.EEGHeadband(), isa.StreamAll{}},
		{"voice mic (ADPCM)", sensors.MicMono(),
			isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt}},
	}
	wir := radio.WiR()
	batt := energy.Fig3Battery()
	t := &Table{
		ID:    "TAB-E",
		Title: "Perpetual operation vs indoor harvesting (10-200 µW, paper §V)",
		Header: []string{"node", "link rate", "avg power", "battery life",
			"indoor PV (typ 50 µW)", "worst-case PV (10 µW)"},
	}
	for _, c := range cases {
		rate := c.policy.OutputRate(c.sensor.DataRate())
		comm, err := wir.AveragePower(rate, 10)
		if err != nil {
			return nil, err
		}
		total := c.sensor.AFEPower + c.policy.ComputePower() + comm
		pv := energy.IndoorPV()
		t.Rows = append(t.Rows, []string{
			c.name, rate.String(), total.String(), batt.Lifetime(total).String(),
			sustainStr(pv.Sustains(total)), sustainStr(pv.WorstCaseSustains(total)),
		})
	}
	return t, nil
}

// sustainStr renders a feasibility cell.
func sustainStr(ok bool) string {
	if ok {
		return "energy-neutral"
	}
	return "needs battery"
}

// AblationTermination regenerates ABL-1: the same body channel terminated
// in high impedance (voltage mode) versus 50 Ω, across frequency — the
// quantitative version of "is RF the right technology?".
func AblationTermination() (*Table, error) {
	freqs := []units.Frequency{100 * units.Kilohertz, 1 * units.Megahertz,
		10 * units.Megahertz, 30 * units.Megahertz}
	terms := []units.Resistance{50 * units.Ohm, 1 * units.Kiloohm,
		100 * units.Kiloohm, 10 * units.Megaohm}
	t := &Table{
		ID:     "ABL-1",
		Title:  "EQS channel gain vs receiver termination (voltage mode vs RF-style 50 Ω)",
		Header: []string{"termination", "HP corner", "gain @100 kHz", "gain @1 MHz", "gain @10 MHz", "gain @30 MHz"},
	}
	for _, rl := range terms {
		m := channel.DefaultEQSBody()
		m.RLoad = rl
		row := []string{rl.String(), m.HighPassCorner().String()}
		for _, f := range freqs {
			row = append(row, fmt.Sprintf("%.1f dB", m.GainDB(f)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "high-impedance termination flattens the whole EQS band; 50 Ω throws it away")
	return t, nil
}

// AblationCompression regenerates ABL-2: what in-sensor MJPEG (video) and
// delta/Rice or event gating (ECG) do to node power and battery life,
// using the real codecs on synthetic signals.
func AblationCompression() (*Table, error) {
	batt := energy.Fig3Battery()
	wir := radio.WiR()
	t := &Table{
		ID:    "ABL-2",
		Title: "In-sensor data reduction vs node power (real codecs on synthetic signals)",
		Header: []string{"node / policy", "link rate", "measured ratio",
			"quality", "node power", "battery life"},
	}

	// Video: MJPEG at three qualities on the synthetic camera.
	cam := sensors.CameraQVGA()
	for _, q := range []int{30, 50, 80} {
		g := sensors.NewVideoSynth(320, 240, 42)
		codec, err := compress.NewFrameCodec(320, 240, q)
		if err != nil {
			return nil, err
		}
		var rawBits, encBits int
		var psnr float64
		const frames = 3
		for i := 0; i < frames; i++ {
			f := g.NextFrame()
			enc, err := codec.Encode(f)
			if err != nil {
				return nil, err
			}
			dec, err := codec.Decode(enc)
			if err != nil {
				return nil, err
			}
			rawBits += len(f) * 8
			encBits += len(enc) * 8
			psnr += compress.PSNR(f, dec)
		}
		psnr /= frames
		ratio := float64(rawBits) / float64(encBits)
		rate := units.DataRate(float64(cam.DataRate()) / ratio)
		comm, err := wir.AveragePower(rate, 10)
		if err != nil {
			return nil, err
		}
		total := cam.AFEPower + 500*units.Microwatt + comm // codec ISA power
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("QVGA camera / MJPEG q%d", q), rate.String(),
			fmt.Sprintf("%.1fx", ratio), fmt.Sprintf("%.1f dB PSNR", psnr),
			total.String(), batt.Lifetime(total).String(),
		})
	}
	// Raw video exceeds the Wi-R goodput — the note Fig. 3 implies.
	t.Notes = append(t.Notes, fmt.Sprintf(
		"raw QVGA (%v) exceeds the 3.9 Mbps Wi-R goodput: compression is mandatory, not optional",
		cam.DataRate()))

	// ECG: raw stream vs lossless delta/Rice vs R-peak event gating.
	ecg := sensors.ECGPatch()
	g := sensors.NewECGSynth(250*units.Hertz, 72, 7)
	rawSamples := sensors.QuantizeBits(g.Samples(250*60), 2.0, 12)
	deltaEnc := compress.EncodeDeltaVarint(rawSamples)
	riceEnc := compress.RiceEncodeAuto(compress.DeltaInt32(rawSamples))
	type ecgCase struct {
		name   string
		policy isa.Policy
		note   string
	}
	cases := []ecgCase{
		{"ECG / raw stream", isa.StreamAll{}, "lossless"},
		{"ECG / delta+varint", isa.Compress{Label: "delta",
			MeasuredRatio: compress.Ratio(len(rawSamples)*2, len(deltaEnc)),
			Power:         5 * units.Microwatt}, "lossless"},
		{"ECG / delta+Rice", isa.Compress{Label: "rice",
			MeasuredRatio: compress.Ratio(len(rawSamples)*2, len(riceEnc)),
			Power:         8 * units.Microwatt}, "lossless"},
		{"ECG / R-peak gating", isa.EventGated{Label: "R-peak", EventsPerSecond: 1.2,
			Window: 300 * units.Millisecond, Heartbeat: 100, Power: 15 * units.Microwatt},
			"beat windows only"},
	}
	for _, c := range cases {
		rate := c.policy.OutputRate(ecg.DataRate())
		comm, err := wir.AveragePower(rate, 10)
		if err != nil {
			return nil, err
		}
		total := ecg.AFEPower + c.policy.ComputePower() + comm
		t.Rows = append(t.Rows, []string{
			c.name, rate.String(),
			fmt.Sprintf("%.1fx", isa.ReductionFactor(c.policy, ecg.DataRate())),
			c.note, total.String(), batt.Lifetime(total).String(),
		})
	}
	return t, nil
}

// All returns every generator keyed by its CLI name, in presentation
// order.
func All() []struct {
	Name string
	Gen  func() (*Table, error)
} {
	return []struct {
		Name string
		Gen  func() (*Table, error)
	}{
		{"fig1", Fig1},
		{"fig2", Fig2},
		{"fig3", func() (*Table, error) { _, t, err := Fig3(); return t, err }},
		{"wir-vs-ble", TableWiRvsBLE},
		{"transceivers", TableTransceivers},
		{"security", TableSecurity},
		{"offload", TableOffload},
		{"harvest", TableHarvest},
		{"latency", TableLatency},
		{"ablation-termination", AblationTermination},
		{"ablation-compression", AblationCompression},
		{"ablation-mac", AblationMAC},
	}
}
