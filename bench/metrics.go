package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
)

// class says where a metric is reported.
type class int

const (
	// endToEnd metrics are what a user of the simulator sees. Every
	// workload measures all of them, none is ever 0, and BENCHMARK.json
	// bounds how far each may worsen. They make the summary line of -trace 0.
	endToEnd class = iota
	// perLayer metrics are one layer's cost, from the traced run. Every
	// workload measures all of them; they make the summary line of -trace 1.
	perLayer
	// detail metrics are measured only on the workloads that exercise
	// their layer. They are printed and written with -json, but are not
	// part of the summary line.
	detail
)

func (c class) String() string {
	return [...]string{"end_to_end", "per_layer", "detail"}[c]
}

type metricDef struct {
	name, unit, better string
	class              class
}

// catalog lists every metric in print order. BENCHMARK.json declares the
// endToEnd and perLayer entries; TestCatalogMatchesBenchmarkJSON keeps the
// two in step.
var catalog = []metricDef{
	{"setup_s", "s", "lower", endToEnd},
	{"runs_per_s", "wearers/s", "higher", endToEnd},
	{"peak_rss_mb", "MB", "lower", endToEnd},

	{"single_runs_per_s", "wearers/s", "higher", detail},
	{"query_p50_ms", "ms", "lower", detail},
	{"query_p90_ms", "ms", "lower", detail},
	{"failed_frac", "ratio", "lower", detail},

	{"desim.ns_per_event", "ns", "lower", perLayer},
	{"desim.events", "count", "lower", perLayer},
	{"bannet.kernel_s", "s", "lower", perLayer},
	{"bannet.ns_per_event", "ns", "lower", perLayer},
	{"bannet.kernel_share", "ratio", "lower", perLayer},
	{"fleet.scenario_s", "s", "lower", perLayer},
	{"fleet.engine_s", "s", "lower", perLayer},
	{"fleet.aggregate_s", "s", "lower", perLayer},
	{"fleet.parallel_efficiency", "ratio", "higher", perLayer},
	{"trace.overhead", "ratio", "lower", perLayer},
	{"trace.elapsed_s", "s", "lower", detail},
	{"fleet.window_peak", "count", "lower", detail},
	{"spectrum.phase1_s", "s", "lower", detail},
	{"spectrum.gather_s", "s", "lower", detail},
	{"spectrum.solve_s", "s", "lower", detail},
	{"spectrum.iters_per_cell", "count", "lower", detail},
	{"spectrum.phase1_share", "ratio", "lower", detail},
	{"telemetry.encode_commit_s", "s", "lower", detail},
	{"telemetry.close_s", "s", "lower", detail},
	{"telemetry.write_MBps", "MB/s", "higher", detail},
	{"telemetry.blocks", "count", "lower", detail},
	{"telemetry.store_bytes", "bytes", "lower", detail},
	{"telemetry.decode_records_per_s", "1/s", "higher", detail},
	{"telemetry.merge_s", "s", "lower", detail},
	{"telemetry.merge_MBps", "MB/s", "higher", detail},
	{"iobfleetd.submit_ms", "ms", "lower", detail},
	{"iobfleetd.fetch_MBps", "MB/s", "higher", detail},
	{"iobfleetd.fetch_amplification", "ratio", "lower", detail},
	{"iobfleetd.shard_retries", "count", "lower", detail},
	{"iobfleetd.shards_stolen", "count", "lower", detail},
	{"iobfleetd.sharding_speedup", "ratio", "higher", detail},
}

func lookup(name string) (metricDef, bool) {
	for _, d := range catalog {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// recorder collects one workload's samples and its operation tally in the
// child process. Every operation and every output check is one attempt;
// a failed one is also one failure and is logged to stderr.
type recorder struct {
	samples     map[string][]float64
	fingerprint string // the workload's output fingerprint, checked against the pins
	attempted   int
	failed      int
	failures    []string
}

func newRecorder() *recorder {
	return &recorder{samples: make(map[string][]float64)}
}

func (r *recorder) add(name string, v float64) {
	if _, ok := lookup(name); !ok {
		panic("bench: metric not in catalog: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s measured %v", name, v)
		return
	}
	r.samples[name] = append(r.samples[name], v)
}

// check counts one output check and records it as failed unless ok.
func (r *recorder) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintln(os.Stderr, "bench: check failed:", msg)
	}
	return ok
}

// op counts one operation, failed when err is non-nil.
func (r *recorder) op(err error) bool {
	if err != nil {
		return r.check(false, "%v", err)
	}
	return r.check(true, "")
}

// finish checks that every metric the summary line needs was measured: a
// missing one means the workload lost a measurement.
func (r *recorder) finish(traced bool) {
	for _, d := range catalog {
		if d.class == endToEnd || d.class == perLayer && traced {
			r.check(len(r.samples[d.name]) > 0, "metric %s was not measured", d.name)
		}
	}
}

// summary is one metric's samples as the benchmark reports them. Value is
// the median (the 90th percentile for query_p90_ms); Q1 and Q3 are the
// samples' quartiles. Every cut point is computed like Python's
// statistics.quantiles (exclusive method), so other tools reproduce them.
type summary struct {
	Unit   string  `json:"unit"`
	Class  string  `json:"class"`
	Better string  `json:"better"`
	Stat   string  `json:"stat"`
	N      int     `json:"n"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(d metricDef, samples []float64) summary {
	s := summary{Unit: d.unit, Class: d.class.String(), Better: d.better, Stat: "median",
		N: len(samples), Value: quantile(samples, 1, 2), Q1: quantile(samples, 1, 4), Q3: quantile(samples, 3, 4)}
	if d.name == "query_p90_ms" {
		s.Stat, s.Value = "p90", quantile(samples, 90, 100)
	}
	return s
}

// quantile is the i-th of the n-1 cut points statistics.quantiles(xs, n=n)
// returns. A single sample is every cut point.
func quantile(xs []float64, i, n int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	m := len(s) + 1
	j := min(max(i*m/n, 1), len(s)-1)
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// median is the middle of xs (the mean of the two middles for even n).
func median(xs []float64) float64 { return quantile(xs, 1, 2) }

// resetPeakRSS restarts a process's VmHWM at its current RSS.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) from
// /proc, in MB.
func peakRSSMB(pid string) (float64, error) {
	blob, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
