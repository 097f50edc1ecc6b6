package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
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
// identical to the NaN-free stream, with the skips counted in nans.
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
	if dirty.n != clean.n {
		t.Errorf("n counts NaNs: %d vs %d", dirty.n, clean.n)
	}
	if dirty.nans != nans {
		t.Errorf("nans = %d, want %d", dirty.nans, nans)
	}
	if clean.nans != 0 {
		t.Errorf("clean stream reports %d NaNs", clean.nans)
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

// refDist is StreamDist's Add before the gap cache: sort.Search for the
// insert position, a shift to insert, and over budget a rescan of every
// adjacent gap for the closest pair and a second shift to merge it.
// FuzzStreamDist and TestStreamDistMatchesReference hold StreamDist to it
// bit for bit.
type refDist struct {
	n, nans       int64
	sum, min, max float64
	bins          []centroid
	maxBins       int
}

func (d *refDist) Add(x float64) {
	if math.IsNaN(x) {
		d.nans++
		return
	}
	if d.n == 0 || x < d.min {
		d.min = x
	}
	if d.n == 0 || x > d.max {
		d.max = x
	}
	d.n++
	d.sum += x

	i := sort.Search(len(d.bins), func(i int) bool { return d.bins[i].c >= x })
	if i < len(d.bins) && d.bins[i].c == x {
		d.bins[i].w++
		return
	}
	d.bins = append(d.bins, centroid{})
	copy(d.bins[i+1:], d.bins[i:])
	d.bins[i] = centroid{c: x, w: 1}
	if len(d.bins) <= d.maxBins {
		return
	}
	best, bestGap := 0, d.bins[1].c-d.bins[0].c
	for j := 1; j < len(d.bins)-1; j++ {
		if gap := d.bins[j+1].c - d.bins[j].c; gap < bestGap {
			best, bestGap = j, gap
		}
	}
	a, b := d.bins[best], d.bins[best+1]
	w := a.w + b.w
	d.bins[best] = centroid{c: (a.c*float64(a.w) + b.c*float64(b.w)) / float64(w), w: w}
	d.bins = append(d.bins[:best+1], d.bins[best+2:]...)
}

// diffRef reports the first difference between d and the reference, or
// "" when every field and centroid matches bit for bit and d's gap cache
// holds the key of every adjacent gap.
func diffRef(d *StreamDist, r *refDist) string {
	bits := math.Float64bits
	switch {
	case d.n != r.n || d.nans != r.nans:
		return fmt.Sprintf("n/nans %d/%d, reference %d/%d", d.n, d.nans, r.n, r.nans)
	case bits(d.sum) != bits(r.sum) || bits(d.min) != bits(r.min) || bits(d.max) != bits(r.max):
		return fmt.Sprintf("sum/min/max %v/%v/%v, reference %v/%v/%v", d.sum, d.min, d.max, r.sum, r.min, r.max)
	case len(d.bins) != len(r.bins):
		return fmt.Sprintf("%d centroids, reference %d", len(d.bins), len(r.bins))
	}
	for j := range d.bins {
		if bits(d.bins[j].c) != bits(r.bins[j].c) || d.bins[j].w != r.bins[j].w {
			return fmt.Sprintf("centroid %d = %+v, reference %+v", j, d.bins[j], r.bins[j])
		}
	}
	for j, k := range d.gaps {
		if want := gapKey(d.bins[j+1].c - d.bins[j].c); k != want {
			return fmt.Sprintf("gap %d cached as %d, want %d", j, k, want)
		}
	}
	return ""
}

// fuzzMaxBins are the budgets FuzzStreamDist picks from: the smallest
// ones put ±Inf and NaN centroids next to each other within a few
// samples, 256 is the engine's.
var fuzzMaxBins = [...]int{1, 2, 3, 8, DefaultMaxBins}

// streamSpecials are the values where float order stops being total or
// arithmetic saturates.
var streamSpecials = [...]float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// decodeStream reads a budget byte (an index into fuzzMaxBins) and then
// a value stream of one-byte ops. The low three bits pick the op, the
// high five its argument a:
//
//	0  the next 8 bytes as float64 bits, little-endian
//	1  the previous value again
//	2  one ulp above the previous value
//	3  one ulp below it
//	4  streamSpecials[a%8]
//	5  the integer a-16
//	6  (a·256 + the next byte)/8, a grid of equal gaps, so tied pairs
//	7  (a-16)·1e307, whose merges overflow to ±Inf
func decodeStream(data []byte) (int, []float64) {
	if len(data) == 0 {
		return fuzzMaxBins[0], nil
	}
	maxBins := fuzzMaxBins[int(data[0])%len(fuzzMaxBins)]
	var xs []float64
	prev := 0.0
	for data = data[1:]; len(data) > 0; {
		op, a := data[0]&7, float64(data[0]>>3)
		data = data[1:]
		var x float64
		switch op {
		case 0:
			var raw [8]byte
			data = data[copy(raw[:], data):]
			x = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		case 1:
			x = prev
		case 2:
			x = math.Nextafter(prev, math.Inf(1))
		case 3:
			x = math.Nextafter(prev, math.Inf(-1))
		case 4:
			x = streamSpecials[int(a)%len(streamSpecials)]
		case 5:
			x = a - 16
		case 6:
			if len(data) > 0 {
				a = a*256 + float64(data[0])
				data = data[1:]
			}
			x = a / 8
		case 7:
			x = (a - 16) * 1e307
		}
		xs = append(xs, x)
		prev = x
	}
	return maxBins, xs
}

// encodeStream is decodeStream's inverse: grid values (op 6) take two
// bytes, any other value nine (op 0).
func encodeStream(maxBins int, xs ...float64) []byte {
	data := []byte{byte(slices.Index(fuzzMaxBins[:], maxBins))}
	for _, x := range xs {
		if v := x * 8; v >= 0 && v < 1<<13 && v == math.Trunc(v) && !math.Signbit(x) {
			data = append(data, 6|byte(int(v)>>8)<<3, byte(int(v)))
			continue
		}
		data = binary.LittleEndian.AppendUint64(append(data, 0), math.Float64bits(x))
	}
	return data
}

// streamCase is a named encoded stream.
type streamCase struct {
	name string
	data []byte
}

// streamDistCases are FuzzStreamDist's seeds and
// TestStreamDistMatchesReference's cases.
func streamDistCases() []streamCase {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	up := func(x float64, k int) float64 {
		for ; k > 0; k-- {
			x = math.Nextafter(x, inf)
		}
		return x
	}
	// Equal gaps in a shuffled order: every merge is a tie.
	var ties []float64
	for j := 0; j < 64; j++ {
		ties = append(ties, float64(j*37%64))
	}
	cases := []streamCase{
		{"repeats", encodeStream(3, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4, 1, 4)},
		{"ulps", encodeStream(3, 1, up(1, 1), up(1, 3), up(1, 2), 2, up(2, 1), up(1, 1), 0, up(0, 1))},
		{"zeros", encodeStream(2, 0, negZero, 1, -1, negZero, 0, up(0, 1), -up(0, 1))},
		{"nan-first", encodeStream(2, nan, 1, nan, 2, 3, nan, 1.5)},
		{"inf-1", encodeStream(1, inf, -inf, 1, inf, -inf, 0, nan, 5)},
		{"inf-2", encodeStream(2, -inf, inf, 1, inf, -inf, 0, -inf, 2, inf, 3)},
		{"inf-3", encodeStream(3, inf, -inf, 1, 2, -inf, inf, 0, negZero, 4, nan, -inf, 5)},
		{"overflow", encodeStream(2, 1e308, 1.5e308, -1e308, math.MaxFloat64, -math.MaxFloat64, 1.7e308, 0)},
		{"nan-centers", encodeStream(3, -inf, inf, 5, -inf, inf, 6, 7, -inf, 8, inf, 9)},
		{"ties-8", encodeStream(8, ties...)},
	}
	// A full engine-sized histogram: ~600 distinct values on a grid, then
	// specials amid them.
	var grid []float64
	state := uint64(11)
	for j := 0; j < 1500; j++ {
		state = state*6364136223846793005 + 1442695040888963407
		grid = append(grid, float64(state>>54)/8) // 1024 grid points
	}
	specials := append(grid[:400:400], inf, -inf, nan, 1e308, inf, -inf, 0, negZero, 3.25)
	return append(cases,
		streamCase{"grid-256", encodeStream(DefaultMaxBins, grid...)},
		streamCase{"specials-256", encodeStream(DefaultMaxBins, specials...)})
}

// checkStream feeds one decoded stream to StreamDist and the reference
// and fails at the first Add after which they differ.
func checkStream(t *testing.T, data []byte) {
	t.Helper()
	maxBins, xs := decodeStream(data)
	d := NewStreamDist(maxBins)
	r := &refDist{maxBins: maxBins}
	for k, x := range xs {
		d.Add(x)
		r.Add(x)
		if diff := diffRef(d, r); diff != "" {
			t.Fatalf("maxBins %d, after Add #%d (%v): %s", maxBins, k, x, diff)
		}
	}
}

// TestStreamDistMatchesReference: the cached Add leaves the same
// centroids, bit for bit, as the rescanning reference after every
// sample, on the fuzz seeds and on long random op streams at every
// budget.
func TestStreamDistMatchesReference(t *testing.T) {
	for _, c := range streamDistCases() {
		t.Run(c.name, func(t *testing.T) { checkStream(t, c.data) })
	}
	rng := rand.New(rand.NewSource(32))
	for k := range fuzzMaxBins {
		for rep := 0; rep < 4; rep++ {
			data := make([]byte, 8192)
			rng.Read(data)
			data[0] = byte(k)
			t.Run(fmt.Sprintf("random-%d-%d", fuzzMaxBins[k], rep), func(t *testing.T) { checkStream(t, data) })
		}
	}
}

// FuzzStreamDist diff-tests StreamDist against the reference on
// arbitrary value streams: ties, ulp neighbours, ±0, NaN and ±Inf, and
// the NaN centroids and gaps their merges make.
func FuzzStreamDist(f *testing.F) {
	for _, c := range streamDistCases() {
		f.Add(c.data)
	}
	f.Fuzz(checkStream)
}
