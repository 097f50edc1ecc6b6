package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// childEnv makes the test binary act as the benchmark when a parent under
// test re-executes it for one workload.
const childEnv = "WIBAN_BENCH_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(runBench(os.Args[1:], os.Stdout, nil))
	}
	os.Exit(m.Run())
}

// bench runs the command in this process, its workloads in children.
func bench(t *testing.T, pins map[string]string, args ...string) (int, []string) {
	t.Helper()
	t.Setenv(childEnv, "1")
	var out bytes.Buffer
	code := runBench(append([]string{"-scale", "smoke", "-seconds", "0"}, args...), &out, pins)
	return code, strings.Split(strings.TrimSpace(out.String()), "\n")
}

// checkSummary checks the last line: it is correct, and its metrics are
// exactly those of class, each with its unit and never 0. Keys carry the
// workload unless one workload ran.
func checkSummary(t *testing.T, line string, want class, workloads ...string) {
	t.Helper()
	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &last); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
		t.Errorf("last line: correct %v, %d of %d failed", last.Correct, last.Failed, last.Attempted)
	}
	n := 0
	for _, w := range workloads {
		for _, d := range catalog {
			if d.class != want {
				continue
			}
			key := d.name
			if len(workloads) > 1 {
				key = w + "/" + d.name
			}
			m, ok := last.Metrics[key]
			n++
			if !ok || m.Unit != d.unit || m.Value == 0 {
				t.Errorf("last line metric %s: %+v, present %v", key, m, ok)
			}
		}
	}
	if len(last.Metrics) != n {
		t.Errorf("last line has %d metrics, want the %d %s ones", len(last.Metrics), n, want)
	}
}

// TestSmoke runs every workload through the benchmark's own code at tiny
// sizes, one rep each.
func TestSmoke(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.ndjson")
	code, lines := bench(t, nil, "-trace", "1", "-spans", spans)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, strings.Join(lines, "\n"))
	}
	printed := make(map[string]string) // "<workload> <metric>" -> "<value> <unit>"
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 5 || !strings.HasPrefix(f[4], "n=") {
			t.Fatalf("malformed metric line %q", l)
		}
		printed[f[0]+" "+f[1]] = f[2] + " " + f[3]
	}
	for _, w := range order {
		for _, d := range catalog {
			if d.class == detail && d.name != "failed_frac" {
				continue
			}
			got, ok := printed[w+" "+d.name]
			if !ok || !strings.HasSuffix(got, " "+d.unit) {
				t.Errorf("%s %s: printed %q, want a value in %s", w, d.name, got, d.unit)
			}
		}
		if got := printed[w+" failed_frac"]; got != "0 ratio" {
			t.Errorf("%s failed_frac = %q", w, got)
		}
	}
	checkSummary(t, lines[len(lines)-1], perLayer, order...)
	checkSpans(t, spans)
}

// checkSpans reads a span file back and checks that every traced sweep's
// layer self times add up to its traced elapsed time within 1%.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byName := make(map[string]layer)
	for i, n := range layerNames {
		byName[n] = layer(i)
	}
	runs := make(map[string][]span)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanJSON
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		l, ok := byName[s.Name]
		if !ok {
			t.Fatalf("unknown span %q", s.Name)
		}
		key := s.Workload + "/" + s.Run
		runs[key] = append(runs[key], span{layer: l, parent: s.Parent, start: s.StartNS, end: s.EndNS})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, w := range order {
		traced := 0
		for key, spans := range runs {
			if !strings.HasPrefix(key, w+"/traced-") {
				continue
			}
			traced++
			elapsed := spans[0].end - spans[0].start
			var sum int64
			for _, d := range selfTimes(spans) {
				sum += int64(d)
			}
			if math.Abs(float64(sum-elapsed)) > 0.01*float64(elapsed) {
				t.Errorf("%s: self times sum to %dns, traced elapsed %dns", key, sum, elapsed)
			}
		}
		if traced != tracePairs {
			t.Errorf("%s: %d traced runs in the span file, want %d", w, traced, tracePairs)
		}
	}
}

// TestSelfTimesCountOverlapOnce pins what makes the span check meaningful:
// overlapping children do not add up to the parent's duration.
func TestSelfTimesCountOverlapOnce(t *testing.T) {
	spans := []span{{fleetEngine, -1, 0, 100}, {bannetKernel, 0, 10, 60}, {fleetAggregate, 0, 50, 70}}
	var sum int64
	for _, d := range selfTimes(spans) {
		sum += int64(d)
	}
	if sum != 110 {
		t.Errorf("self times sum to %d, want 110 (the 10ns overlap counted twice)", sum)
	}
}

// TestCorruptPinFails checks that the pinned fingerprint is enforced: the
// true one passes, a corrupted one fails the run.
func TestCorruptPinFails(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	args := []string{"-workload", "kernel"}
	code, lines := bench(t, nil, append(args, "-json", out)...)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, strings.Join(lines, "\n"))
	}
	checkSummary(t, lines[len(lines)-1], endToEnd, "kernel")
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct{ Workloads map[string]workloadReport }
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	fp := rep.Workloads["kernel"].Fingerprint
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q", fp)
	}
	const key = "kernel/smoke/42"
	if code, lines := bench(t, map[string]string{key: fp}, args...); code != 0 {
		t.Fatalf("true pin: exit %d:\n%s", code, strings.Join(lines, "\n"))
	}
	flipped := byte('0')
	if fp[63] == '0' {
		flipped = '1'
	}
	corrupt := fp[:63] + string(flipped)
	code, lines = bench(t, map[string]string{key: corrupt}, args...)
	if code == 0 || !strings.Contains(lines[len(lines)-1], `"correct":false`) {
		t.Errorf("corrupted pin: exit %d, last line %s", code, lines[len(lines)-1])
	}
}

// TestPinsCoverFullScale keeps the embedded pins in step with the
// workloads: every workload's default-seed full-scale fingerprint is pinned.
func TestPinsCoverFullScale(t *testing.T) {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	for _, w := range order {
		if len(pins[w+"/full/42"]) != 64 {
			t.Errorf("no pinned fingerprint for %s/full/42", w)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json, which the
// benchmark never reads, in step with the metrics the command prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, order) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, order)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, -seconds defaults to %d", b.RunSeconds, defaultSeconds)
	}
	var e2e, layers []metricDef
	for _, d := range catalog {
		switch d.class {
		case endToEnd:
			e2e = append(e2e, d)
		case perLayer:
			layers = append(layers, d)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, e2e}, {"per_layer", b.PerLayer, layers}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalog %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.kind, i, m, d)
			}
		}
	}
}

// TestQuantileMatchesPython pins quantile to statistics.quantiles'
// exclusive method, which the acceptance spreads are computed with.
func TestQuantileMatchesPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		i, n int
		want float64
	}{
		{ten, 1, 4, 2.75}, {ten, 2, 4, 5.5}, {ten, 3, 4, 8.25}, {ten, 9, 10, 9.9},
		{[]float64{1, 2}, 1, 4, 0.75}, {[]float64{1, 2}, 3, 4, 2.25}, {[]float64{3, 1, 2}, 1, 4, 1},
		{[]float64{3}, 1, 4, 3}, // Python refuses one point; the benchmark reports it as is
	} {
		if got := quantile(c.xs, c.i, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %d, %d) = %v, want %v", c.xs, c.i, c.n, got, c.want)
		}
	}
}
