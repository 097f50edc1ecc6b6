package figures

import (
	"fmt"

	"wiban/internal/energy"
	"wiban/internal/iob"
	"wiban/internal/isa"
	"wiban/internal/nn"
	"wiban/internal/sensors"
	"wiban/internal/survey"
	"wiban/internal/units"
)

// fig1Designs builds the node pairs Fig. 1 contrasts, one per workload
// class.
func fig1Designs() ([]*iob.NodeDesign, error) {
	ecgModel, err := nn.ECGNet()
	if err != nil {
		return nil, err
	}
	kws, err := nn.KWSNet()
	if err != nil {
		return nil, err
	}
	vision, err := nn.VisionNet()
	if err != nil {
		return nil, err
	}
	ecgW := &iob.Workload{Model: ecgModel, PerSecond: 1.2}
	kwsW := &iob.Workload{Model: kws, PerSecond: 2}
	visW := &iob.Workload{Model: vision, PerSecond: 1}

	adpcm := isa.Compress{Label: "ADPCM", MeasuredRatio: 4, Power: 20 * units.Microwatt}
	mjpeg := isa.Compress{Label: "MJPEG q50", MeasuredRatio: 8, Power: 500 * units.Microwatt}

	return []*iob.NodeDesign{
		iob.ConventionalNode("ECG node", sensors.ECGPatch(), ecgW),
		iob.HumanInspiredNode("ECG node", sensors.ECGPatch(), nil, ecgW),
		iob.ConventionalNode("IMU node", sensors.IMU6Axis(), nil),
		iob.HumanInspiredNode("IMU node", sensors.IMU6Axis(), nil, nil),
		iob.ConventionalNode("audio KWS node", sensors.MicMono(), kwsW),
		iob.HumanInspiredNode("audio KWS node", sensors.MicMono(), adpcm, kwsW),
		iob.ConventionalNode("video node", sensors.CameraQVGA(), visW),
		iob.HumanInspiredNode("video node", sensors.CameraQVGA(), mjpeg, visW),
	}, nil
}

// Fig1 regenerates the paper's Fig. 1 power comparison: per-component
// power of conventional vs human-inspired nodes, with projected battery
// life on the Fig. 3 cell.
func Fig1() (*Table, error) {
	designs, err := fig1Designs()
	if err != nil {
		return nil, err
	}
	batt := energy.Fig3Battery()
	t := &Table{
		ID:    "FIG1",
		Title: "IoB node power: conventional (sensor+CPU+BLE) vs human-inspired (sensor+ISA+Wi-R)",
		Header: []string{"node", "architecture", "sense", "compute", "comm(avg)",
			"total(avg)", "radio(active)", "battery life"},
	}
	for _, d := range designs {
		b, err := d.AverageBreakdown()
		if err != nil {
			return nil, err
		}
		act := d.ActiveBreakdown()
		life := batt.Lifetime(b.Total())
		t.Rows = append(t.Rows, []string{
			d.Name, d.Arch.String(),
			b.Sense.String(), b.Compute.String(), b.Comm.String(),
			b.Total().String(), act.Comm.String(), life.String(),
		})
	}
	t.Notes = append(t.Notes,
		"paper classes — conventional: sensors ~100s µW, CPU ~mW, radio ~10s mW;",
		"human-inspired: sensors 10-50 µW, ISA ~100 µW, Wi-R ~100 µW; battery 1000 mAh @ 3 V",
	)
	return t, nil
}

// Fig2 regenerates the wearable battery-life survey: our energy model's
// projection against the market-reported band for each device class.
func Fig2() (*Table, error) {
	t := &Table{
		ID:    "FIG2",
		Title: "Battery life of commercial wearables (pre-2024 vs 2024 AI boom)",
		Header: []string{"device", "era", "battery", "platform power",
			"projected life", "claimed band", "consistent"},
	}
	for _, d := range survey.Fig2Devices() {
		t.Rows = append(t.Rows, []string{
			d.Name, d.Era.String(),
			fmt.Sprintf("%.0f mAh", d.BatteryMAh),
			d.PlatformPower.String(),
			d.ProjectedLife().String(),
			d.Claimed.String(),
			fmt.Sprintf("%v", d.Consistent()),
		})
	}
	return t, nil
}

// Fig3 regenerates the battery-life-vs-data-rate projection with the
// paper's device markers and the perpetual region boundary, plus a BLE
// comparison column.
func Fig3() (*Table, error) {
	p := iob.NewFig3Projector()
	sweep, err := p.Sweep(1, 3.9*units.Mbps, 3)
	if err != nil {
		return nil, err
	}
	ble := iob.NewFig3Projector()
	ble.Radio = radioBLE()

	t := &Table{
		ID:    "FIG3",
		Title: "Projected battery life vs data rate (1000 mAh, Wi-R @ 100 pJ/bit, survey sensing power)",
		Header: []string{"data rate", "P_sense", "P_comm", "P_total",
			"life (Wi-R)", "life (BLE)", "perpetual"},
	}
	for _, pr := range sweep {
		bleStr := "n/a (rate > BLE goodput)"
		if bp, err := ble.At(pr.Rate); err == nil {
			bleStr = bp.Life.String()
		}
		t.Rows = append(t.Rows, []string{
			pr.Rate.String(), pr.Sense.String(), pr.Comm.String(), pr.Total.String(),
			pr.Life.String(), bleStr, fmt.Sprintf("%v", pr.Perpetual),
		})
	}
	for _, m := range iob.Fig3Markers() {
		pr, err := p.Mark(m)
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, fmt.Sprintf("marker %-22s @ %v: life %v (perpetual=%v)",
			m.Name, m.Rate, pr.Life, pr.Perpetual))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("perpetual region (>1 yr) extends to %v", p.PerpetualBoundary()))
	return t, nil
}
