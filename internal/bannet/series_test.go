package bannet

import (
	"math"
	"reflect"
	"testing"

	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// collectSeries runs cfg with sampling at the given cadence and returns
// the report's samples plus the report.
func collectSeries(t *testing.T, cfg Config, cadence, span units.Duration) ([]telemetry.SeriesPoint, *Report) {
	t.Helper()
	cfg.SeriesEvery = cadence
	rep, err := Run(cfg, span)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Series, rep
}

// TestSeriesSamplingInert: enabling sampling must not perturb the run —
// every report field but Series (node stats, energy books and the
// kernel event count the fleet fingerprints) is byte-identical with
// sampling on or off, and the sample stream itself replays
// deterministically.
func TestSeriesSamplingInert(t *testing.T) {
	cfg := regressConfig()
	plain, err := Run(cfg, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sampled, rep := collectSeries(t, cfg, 30*units.Second, 10*units.Minute)
	plain.Schedule, rep.Schedule = nil, nil
	rep.Series = nil
	if !reflect.DeepEqual(plain, rep) {
		t.Fatalf("sampling perturbed the run:\noff %+v\non  %+v", plain, rep)
	}
	if len(sampled) == 0 {
		t.Fatal("no samples emitted")
	}
	again, _ := collectSeries(t, cfg, 30*units.Second, 10*units.Minute)
	if !reflect.DeepEqual(sampled, again) {
		t.Fatal("sample stream not deterministic across identical runs")
	}
}

// TestSeriesCadenceQuantization: samples land on superframe boundaries at
// (at least) the requested cadence, one per node per instant, timestamps
// nondecreasing, and the final instant is the end of the span (the tail
// sample). A cadence below the superframe degrades to one sample per
// superframe, and a cadence beyond the span still yields exactly one
// tail instant.
func TestSeriesCadenceQuantization(t *testing.T) {
	cfg := regressConfig()
	nodes := len(cfg.Nodes)
	span := 10 * units.Second
	superMS := int64(100) // default TDMA superframe is 100 ms

	samples, _ := collectSeries(t, cfg, 250*units.Millisecond, span)
	var instants []int64
	perInstant := map[int64]int{}
	for _, s := range samples {
		if s.TimeMS%superMS != 0 {
			t.Fatalf("sample at %d ms off the %d ms superframe grid", s.TimeMS, superMS)
		}
		if n := len(instants); n == 0 || instants[n-1] != s.TimeMS {
			if n > 0 && instants[n-1] > s.TimeMS {
				t.Fatalf("timestamps regressed: %d after %d", s.TimeMS, instants[n-1])
			}
			instants = append(instants, s.TimeMS)
		}
		perInstant[s.TimeMS]++
	}
	for ms, n := range perInstant {
		if n != nodes {
			t.Errorf("instant %d ms has %d samples, want %d", ms, n, nodes)
		}
	}
	if last := instants[len(instants)-1]; last != int64(span/units.Millisecond) {
		t.Errorf("last instant %d ms, want tail sample at %d ms", last, int64(span/units.Millisecond))
	}
	// 10 s at a 250 ms cadence quantized to a 100 ms grid: the cadence
	// mark at 250 ms lands on the 300 ms frame, so instants are spaced
	// 200–300 ms apart — between span/300ms and span/200ms of them.
	if n := len(instants); n < 30 || n > 51 {
		t.Errorf("%d instants for 10 s at 250 ms cadence, want ≈ 33-50", n)
	}

	// Sub-superframe cadence degrades to once per superframe.
	dense, _ := collectSeries(t, cfg, units.Millisecond, span)
	if want := int(int64(span/units.Millisecond)/superMS) * nodes; len(dense) != want {
		t.Errorf("1 ms cadence: %d samples, want %d (one per node per superframe)", len(dense), want)
	}

	// Cadence beyond the span: only the tail instant.
	tail, _ := collectSeries(t, cfg, units.Hour, span)
	if len(tail) != nodes {
		t.Fatalf("over-span cadence: %d samples, want %d (tail only)", len(tail), nodes)
	}
	if tail[0].TimeMS != int64(span/units.Millisecond) {
		t.Errorf("tail instant %d ms, want %d ms", tail[0].TimeMS, int64(span/units.Millisecond))
	}
}

// TestSeriesWindowAccounting: per-window failure fractions are true
// ratios — NaN on empty windows (a gap, never a fake zero), inside
// [0,1], collision-attributed failures never exceeding total failures
// and appearing iff CollisionPER > 0 on the node.
func TestSeriesWindowAccounting(t *testing.T) {
	cfg := regressConfig()
	cfg.Nodes[1].CollisionPER = 0.4

	// One-superframe windows: the 3 kbps ECG node emits a packet every
	// ~341 ms, so most 100 ms windows hold no attempt — the gap path must
	// yield NaN there, not a fake perfect link.
	samples, _ := collectSeries(t, cfg, 100*units.Millisecond, 10*units.Minute)
	sawGap := false
	sawCollision := false
	for _, s := range samples {
		gap := math.IsNaN(s.LinkPER)
		if gap != math.IsNaN(s.CollisionRate) {
			t.Fatalf("half-NaN sample: %+v", s)
		}
		if gap {
			sawGap = true
			continue
		}
		if s.LinkPER < 0 || s.LinkPER > 1 || s.CollisionRate < 0 || s.CollisionRate > 1 {
			t.Fatalf("rates outside [0,1]: %+v", s)
		}
		if s.CollisionRate > s.LinkPER {
			t.Fatalf("collision rate %v exceeds total failure rate %v", s.CollisionRate, s.LinkPER)
		}
		if s.Node == 0 && s.CollisionRate != 0 {
			t.Fatalf("collision attributed on a node with CollisionPER=0: %+v", s)
		}
		if s.Node == 1 && s.CollisionRate > 0 {
			sawCollision = true
		}
	}
	if !sawCollision {
		t.Error("no collision-attributed failures on a CollisionPER=0.4 node")
	}
	if !sawGap {
		t.Error("no NaN gap windows in a sparse-traffic run")
	}

	// Aggregate collision share: with CollisionPER=0.4 and PER=0.1 the
	// combined loss is 1−0.9·0.6 = 0.46, of which 0.4 is collisions —
	// the mean per-window CollisionRate/LinkPER ratio must sit near
	// 0.4/0.46 ≈ 0.87, pinning the single-draw attribution split.
	var colSum, perSum float64
	for _, s := range samples {
		if s.Node == 1 && !math.IsNaN(s.LinkPER) {
			colSum += s.CollisionRate
			perSum += s.LinkPER
		}
	}
	if perSum == 0 {
		t.Fatal("no failing windows on the collision node")
	}
	if share := colSum / perSum; share < 0.75 || share > 0.95 {
		t.Errorf("collision share of failures = %.3f, want ≈ 0.87", share)
	}
}

// TestSeriesBatteryCharge: DrainBattery nodes report a monotonically
// non-increasing state of charge (no harvester in this config); nodes
// without battery drain always report a full charge.
func TestSeriesBatteryCharge(t *testing.T) {
	cfg := regressConfig()
	cfg.Nodes[1].DrainBattery = true
	samples, _ := collectSeries(t, cfg, 10*units.Second, 10*units.Minute)
	prev := math.Inf(1)
	for _, s := range samples {
		switch s.Node {
		case 0: // not draining
			if s.Charge != 1 {
				t.Fatalf("non-draining node charge %v, want 1", s.Charge)
			}
		case 1:
			if s.Charge < 0 || s.Charge > 1 {
				t.Fatalf("charge %v outside [0,1]", s.Charge)
			}
			if s.Charge > prev {
				t.Fatalf("charge rose from %v to %v without a harvester", prev, s.Charge)
			}
			prev = s.Charge
		}
	}
	if prev >= 1 {
		t.Error("draining node never lost charge over 10 minutes")
	}
}

// TestSeriesSteadyStateZeroAlloc extends the arena contract to sampling:
// a warmed Reset–RunInto cycle with SeriesEvery set stays
// allocation-free — the report's Series array is reused like Nodes'.
func TestSeriesSteadyStateZeroAlloc(t *testing.T) {
	big := regressConfig()
	big.SeriesEvery = units.Second
	small := big
	small.Nodes = small.Nodes[:1]
	sim, err := NewSim(big)
	if err != nil {
		t.Fatal(err)
	}
	var sampleCount int64
	var rep Report
	seed := int64(0)
	cycle := func() {
		cfg := big
		if seed%2 == 0 {
			cfg = small
		}
		cfg.Seed = seed
		seed++
		if err := sim.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunInto(10*units.Second, &rep); err != nil {
			t.Fatal(err)
		}
		sampleCount += int64(len(rep.Series))
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("steady-state sampling cycle allocates %.1f times, want 0", avg)
	}
	if sampleCount == 0 {
		t.Fatal("no samples emitted")
	}
	// Sampling is per configuration: a Reset without SeriesEvery stops
	// emission, and RunInto truncates the reused Series array.
	big.SeriesEvery = 0
	if err := sim.Reset(big); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunInto(10*units.Second, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 0 {
		t.Errorf("disabled series still emitted %d samples", len(rep.Series))
	}
}
