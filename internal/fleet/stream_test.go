package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wiban/internal/bannet"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// TestStreamDistExactBelowBudget: while distinct values fit the centroid
// budget, StreamDist must reproduce the batch NewDist bit-for-bit —
// including the ⌊n·p/100⌋ percentile convention and insertion-order
// summation of the mean.
func TestStreamDistExactBelowBudget(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64((i*37)%100) / 7 // 100 distinct values, shuffled order
	}
	sd := NewStreamDist(0)
	for _, s := range samples {
		sd.Add(s)
	}
	got := sd.Dist()
	want := NewDist(append([]float64(nil), samples...))
	if got != want {
		t.Fatalf("stream dist diverged below budget:\n got %+v\nwant %+v", got, want)
	}
}

// TestStreamDistMergedApproximation: far over budget, percentiles must
// stay within a few percent of the exact ones on a smooth distribution.
func TestStreamDistMergedApproximation(t *testing.T) {
	const n = 50000
	sd := NewStreamDist(64)
	exact := make([]float64, n)
	state := uint64(1)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407 // deterministic LCG
		x := float64(state>>11) / float64(1<<53)                // uniform [0,1)
		sd.Add(x)
		exact[i] = x
	}
	want := NewDist(exact)
	got := sd.Dist()
	if got.N != n || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("exact fields diverged: %+v vs %+v", got, want)
	}
	if math.Abs(got.Mean-want.Mean) > 1e-9 {
		t.Errorf("mean %v, want %v", got.Mean, want.Mean)
	}
	for _, q := range []struct{ got, want float64 }{
		{got.P10, want.P10}, {got.P50, want.P50}, {got.P90, want.P90}, {got.P99, want.P99},
	} {
		if math.Abs(q.got-q.want) > 0.05 {
			t.Errorf("quantile %v, want %v (±0.05 of unit range)", q.got, q.want)
		}
	}
}

// TestStreamDistDeterminism: identical insertion sequences produce
// identical summaries even deep in merge territory.
func TestStreamDistDeterminism(t *testing.T) {
	run := func() Dist {
		sd := NewStreamDist(32)
		state := uint64(99)
		for i := 0; i < 10000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			sd.Add(float64(state >> 40))
		}
		return sd.Dist()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("merge path nondeterministic:\n%+v\n%+v", a, b)
	}
}

// TestStreamDistNaNPolicy pins the gap-sample contract: NaN never enters
// a statistic. Interleaving NaNs anywhere in the stream — first sample,
// mid-stream, deep in merge territory — must leave every summary field
// identical to the NaN-free stream, with the skips visible via NaNs().
func TestStreamDistNaNPolicy(t *testing.T) {
	state := uint64(7)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	clean := NewStreamDist(64)
	dirty := NewStreamDist(64)
	dirty.Add(math.NaN()) // NaN as the very first sample
	nans := int64(1)
	for i := 0; i < 5000; i++ {
		x := next()
		clean.Add(x)
		dirty.Add(x)
		if i%17 == 0 {
			dirty.Add(math.NaN())
			nans++
		}
	}
	if got, want := dirty.Dist(), clean.Dist(); got != want {
		t.Fatalf("NaN samples leaked into the summary:\n got %+v\nwant %+v", got, want)
	}
	if dirty.N() != clean.N() {
		t.Errorf("N counts NaNs: %d vs %d", dirty.N(), clean.N())
	}
	if dirty.NaNs() != nans {
		t.Errorf("NaNs() = %d, want %d", dirty.NaNs(), nans)
	}
	if clean.NaNs() != 0 {
		t.Errorf("clean stream reports %d NaNs", clean.NaNs())
	}
	// Mean must stay finite — the pre-policy failure mode was a poisoned
	// sum turning every derived statistic into NaN.
	if m := dirty.Dist().Mean; math.IsNaN(m) {
		t.Error("mean poisoned by NaN sample")
	}
	// An all-NaN stream is an empty distribution, not a crash.
	empty := NewStreamDist(0)
	empty.Add(math.NaN())
	if got := empty.Dist(); got != (Dist{}) {
		t.Errorf("all-NaN stream: %+v, want zero Dist", got)
	}
	if empty.Quantile(50) != 0 {
		t.Errorf("all-NaN quantile = %v, want 0", empty.Quantile(50))
	}
}

// TestStreamMatchesBatchOnSmallFleet: on a fleet small enough that no
// centroid merges happen, the streaming Run and the exact RunReports
// paths must produce byte-identical reports.
func TestStreamMatchesBatchOnSmallFleet(t *testing.T) {
	stream, _, err := testFleet(40, 4, 11).Run()
	if err != nil {
		t.Fatal(err)
	}
	_, batch, _, err := testFleet(40, 4, 11).RunReports()
	if err != nil {
		t.Fatal(err)
	}
	js, _ := json.Marshal(stream)
	jb, _ := json.Marshal(batch)
	if string(js) != string(jb) {
		t.Fatalf("stream and batch aggregation diverged on a small fleet:\n%s\n%s", js, jb)
	}
}

// TestStreamSinkOrderAndTee checks records arrive in strict wearer order
// regardless of workers, and that Tee fans out in argument order.
func TestStreamSinkOrderAndTee(t *testing.T) {
	var order []int
	var copies []int
	first := SinkFunc(func(rec telemetry.Record) error {
		order = append(order, rec.Wearer)
		return nil
	})
	second := SinkFunc(func(rec telemetry.Record) error {
		copies = append(copies, rec.Wearer)
		return nil
	})
	f := testFleet(50, 8, 3)
	if _, err := f.Stream(Tee(first, second)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 || len(copies) != 50 {
		t.Fatalf("sinks saw %d/%d records, want 50/50", len(order), len(copies))
	}
	for i, w := range order {
		if w != i {
			t.Fatalf("record %d has wearer %d: out of order", i, w)
		}
	}
}

// TestStreamSinkErrorAborts: a sink failure aborts the sweep with a
// deterministic index, independent of worker count.
func TestStreamSinkErrorAborts(t *testing.T) {
	for _, workers := range []int{1, 8} {
		f := testFleet(60, workers, 5)
		boom := SinkFunc(func(rec telemetry.Record) error {
			if rec.Wearer == 23 {
				return fmt.Errorf("disk full")
			}
			return nil
		})
		_, err := f.Stream(boom)
		if err == nil || !strings.Contains(err.Error(), "wearer 23") {
			t.Fatalf("workers=%d: err = %v, want sink failure at wearer 23", workers, err)
		}
	}
}

// TestSinkRunsBesideWorkers pins that the sink runs outside the engine's
// lock. Scenario(1) waits until Consume(0) has been entered, and
// Consume(0) waits until Scenario(2) has been called: the sweep finishes
// only if a worker can park wearer 1 and start wearer 2 while Consume(0)
// is still running. An engine that emits under its lock deadlocks here.
func TestSinkRunsBesideWorkers(t *testing.T) {
	consuming := make(chan struct{}) // closed when Consume(0) is entered
	started := make(chan struct{})   // closed when Scenario(2) is called
	f := testFleet(6, 2, 11)
	f.Span = 5 * units.Second
	scenario := f.Scenario
	f.Scenario = func(w int, rng *rand.Rand) (bannet.Config, error) {
		switch w {
		case 1:
			<-consuming
		case 2:
			close(started)
		}
		return scenario(w, rng)
	}
	sink := SinkFunc(func(rec telemetry.Record) error {
		if rec.Wearer == 0 {
			close(consuming)
			<-started
		}
		return nil
	})
	errc := make(chan error, 1)
	go func() {
		_, err := f.Stream(sink)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("deadlock: Consume(0) blocks the worker that would start wearer 2")
	}
}

// TestSingleWorkerLockstep pins that one worker alternates strictly
// between building a wearer and consuming its record, across a store
// block boundary: Consume(k) returns before Scenario(k+1) starts, so a
// sweep stopped in Scenario(k) has committed exactly the blocks below k.
// The sweep package's kill-and-resume tests rely on this.
func TestSingleWorkerLockstep(t *testing.T) {
	const wearers, blockSize = 20, 8
	f := testFleet(wearers, 1, 13)
	f.Span = 5 * units.Second
	store, err := telemetry.Create(filepath.Join(t.TempDir(), "lockstep.wtl"), storeMeta(f, blockSize))
	if err != nil {
		t.Fatal(err)
	}
	var calls []string
	scenario := f.Scenario
	f.Scenario = func(w int, rng *rand.Rand) (bannet.Config, error) {
		calls = append(calls, fmt.Sprintf("S%d", w))
		if got, want := store.Checkpointed(), w/blockSize*blockSize; got != want {
			t.Errorf("Scenario(%d) saw checkpoint at wearer %d, want %d", w, got, want)
		}
		return scenario(w, rng)
	}
	record := SinkFunc(func(rec telemetry.Record) error {
		calls = append(calls, fmt.Sprintf("C%d", rec.Wearer))
		return nil
	})
	if _, err := f.Stream(Tee(store, record)); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var want []string
	for w := 0; w < wearers; w++ {
		want = append(want, fmt.Sprintf("S%d", w), fmt.Sprintf("C%d", w))
	}
	if got := strings.Join(calls, " "); got != strings.Join(want, " ") {
		t.Fatalf("call order\n got %s\nwant %s", got, strings.Join(want, " "))
	}
}

// TestStreamWindowBoundsMemory: the reorder window, not the fleet size,
// bounds how many completed reports coexist.
func TestStreamWindowBoundsMemory(t *testing.T) {
	f := testFleet(400, 8, 9)
	f.Span = 5 * units.Second
	rep, perf, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wearers != 400 {
		t.Fatalf("wearers %d", rep.Wearers)
	}
	if perf.MaxPending > 4*8 {
		t.Fatalf("reorder window peaked at %d reports, bound is %d", perf.MaxPending, 4*8)
	}
}

// TestStreamStartResumesExactly: splitting a sweep at an arbitrary index
// and feeding both halves into one aggregator reproduces the one-shot
// sweep byte-for-byte (the telemetry-store version of this is the resume
// golden test).
func TestStreamStartResumesExactly(t *testing.T) {
	full, _, err := testFleet(80, 4, 21).Run()
	if err != nil {
		t.Fatal(err)
	}
	agg := NewStreamAggregator(30 * units.Second)
	head := testFleet(80, 4, 21)
	head.Wearers = 33 // first leg: wearers [0, 33)
	if _, err := head.Stream(agg); err != nil {
		t.Fatal(err)
	}
	tail := testFleet(80, 4, 21)
	tail.Start = 33 // second leg: wearers [33, 80)
	if _, err := tail.Stream(agg); err != nil {
		t.Fatal(err)
	}
	if got := agg.Report(); got.Fingerprint() != full.Fingerprint() {
		t.Fatal("split sweep diverged from one-shot sweep")
	}
}

// TestStreamRejectsBadStart covers Start validation.
func TestStreamRejectsBadStart(t *testing.T) {
	for _, start := range []int{-1, 101} {
		f := testFleet(100, 2, 1)
		f.Start = start
		if _, _, err := f.Run(); err == nil {
			t.Errorf("Start=%d accepted", start)
		}
	}
	f := testFleet(100, 2, 1)
	f.Start = 100 // empty resume leg is legal: everything already stored
	if _, err := f.Stream(NewStreamAggregator(f.Span)); err != nil {
		t.Errorf("Start==Wearers: %v", err)
	}
	if f.Start != 0 {
		if _, _, _, err := f.RunReports(); err == nil {
			t.Error("RunReports accepted a resumed sweep")
		}
	}
}

// TestStreamDistPercentileProperty is the randomized pin of the
// StreamDist↔batch contract across the 256-centroid threshold: for any
// insertion sequence whose distinct-value count fits the centroid budget
// — regardless of total sample count — the streaming percentiles must
// equal the batch sorted-sample ones bit-for-bit; past the budget they
// must stay within a tight fraction of the sample range while N, min,
// max and (to rounding) the mean remain exact.
func TestStreamDistPercentileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260727))
	exactTrials, mergedTrials := 0, 0
	for trial := 0; trial < 120; trial++ {
		n := 128 + rng.Intn(384) // 128..511 straddles the 256 threshold
		bounded := trial%2 == 0
		samples := make([]float64, n)
		distinct := map[float64]bool{}
		for i := range samples {
			var v float64
			if bounded {
				// ≤ 200 distinct values: duplicates guarantee the
				// centroid budget holds even when n > 256.
				v = float64(rng.Intn(200)) / 7
			} else {
				v = rng.NormFloat64() * 10
			}
			samples[i] = v
			distinct[v] = true
		}
		sd := NewStreamDist(0)
		for _, v := range samples {
			sd.Add(v)
		}
		got := sd.Dist()
		want := NewDist(append([]float64(nil), samples...))
		if len(distinct) <= DefaultMaxBins {
			exactTrials++
			if got != want {
				t.Fatalf("trial %d (n=%d, %d distinct): stream diverged from batch\n got %+v\nwant %+v",
					trial, n, len(distinct), got, want)
			}
			continue
		}
		mergedTrials++
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("trial %d: exact fields diverged over budget: %+v vs %+v", trial, got, want)
		}
		if math.Abs(got.Mean-want.Mean) > 1e-9*math.Max(1, math.Abs(want.Mean)) {
			t.Fatalf("trial %d: mean %v, want %v", trial, got.Mean, want.Mean)
		}
		span := want.Max - want.Min
		for _, q := range []struct {
			name      string
			got, want float64
		}{
			{"p10", got.P10, want.P10}, {"p50", got.P50, want.P50},
			{"p90", got.P90, want.P90}, {"p99", got.P99, want.P99},
		} {
			if math.Abs(q.got-q.want) > 0.05*span {
				t.Fatalf("trial %d (n=%d, %d distinct): %s = %g, want %g (±5%% of range %g)",
					trial, n, len(distinct), q.name, q.got, q.want, span)
			}
		}
		if got.P10 > got.P50 || got.P50 > got.P90 || got.P90 > got.P99 {
			t.Fatalf("trial %d: percentiles not monotone: %+v", trial, got)
		}
	}
	// The trial mix must actually exercise both regimes.
	if exactTrials < 20 || mergedTrials < 20 {
		t.Fatalf("property test degenerate: %d exact / %d merged trials", exactTrials, mergedTrials)
	}
}
