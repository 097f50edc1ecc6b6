// Command bench is the repository's benchmark. It runs four workloads,
// from the discrete-event kernel up to the sharded iobfleetd daemon,
// checks that every output is correct, and prints each metric as
//
//	<workload> <metric> <value> <unit> n=<samples>
//
// followed by a one-line JSON summary. See README.md for the workloads,
// the metrics and how to compare two commits.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                                  # all four workloads
//	bash bench/run.sh -workload kernel -seed 7 -trace 1
//	bash bench/run.sh -trace 1 -json out.json -spans spans.ndjson
//
// Each workload runs in a fresh child process: the command re-executes
// itself with -child, so peak RSS is per workload and a crash stays
// isolated. The benchmark reads /proc and is Linux-only.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childStart is when this process started; the first set-up is timed
// from here.
var childStart = time.Now()

// defaultSeconds is the measuring time per workload, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

// params sizes one workload.
type params struct {
	sweep   sweepSpec
	warm    int  // wearers of the warm-up sweep (or pair) that ends set-up
	setups  int  // set-ups per run; setup_s is their median
	reps    int  // timed reps (pairs on daemon-shards) that run even past -seconds
	queries int  // QueryStore calls per rep
	daemon  bool // run through iobfleetd instead of in-process
}

// order is the workloads in run order. Why each exists is in README.md.
var order = []string{"kernel", "coupled", "store-rw", "daemon-shards"}

// scales holds each workload's sizes: full is the benchmark, smoke the
// seconds-long version the tests run through the same code. A set-up of
// 0.2-0.6 s swings by tens of percent from one to the next on a 2-CPU
// host, so full runs set up many times and report the median.
var scales = map[string]map[string]params{
	"full": {
		"kernel":        {sweep: sweepSpec{wearers: 24000, span: 60, ble: 0.25}, warm: 2400, setups: 11, reps: 7},
		"coupled":       {sweep: sweepSpec{wearers: 48000, span: 20, ble: 0.5, density: 40, feedback: true}, warm: 4800, setups: 11, reps: 7},
		"store-rw":      {sweep: sweepSpec{wearers: 12000, span: 60, ble: 0.25, series: 1, blockSize: 64}, warm: 1200, setups: 11, reps: 5, queries: 20},
		"daemon-shards": {sweep: sweepSpec{wearers: 24000, span: 60, ble: 0.25, series: 1, blockSize: 64}, warm: 2000, setups: 9, reps: 4, daemon: true},
	},
	"smoke": {
		"kernel":        {sweep: sweepSpec{wearers: 300, span: 10, ble: 0.25}, warm: 30, setups: 2, reps: 1},
		"coupled":       {sweep: sweepSpec{wearers: 300, span: 10, ble: 0.5, density: 40, feedback: true}, warm: 40, setups: 2, reps: 1},
		"store-rw":      {sweep: sweepSpec{wearers: 200, span: 20, ble: 0.25, series: 1, blockSize: 64}, warm: 20, setups: 2, reps: 1, queries: 2},
		"daemon-shards": {sweep: sweepSpec{wearers: 200, span: 10, ble: 0.25, series: 1, blockSize: 64}, warm: 20, setups: 2, reps: 1, daemon: true},
	},
}

// pinsJSON maps "<workload>/<scale>/<seed>" to the output fingerprint
// that run must produce.
//
//go:embed pins.json
var pinsJSON []byte

// config is the parsed command line.
type config struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	scale     string
	jsonOut   string
	spans     string
	daemon    string // iobfleetd binary, handed from the parent to the child
}

func main() {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Fprintln(os.Stderr, "bench: pins.json:", err)
		os.Exit(2)
	}
	os.Exit(runBench(os.Args[1:], os.Stdout, pins))
}

// runBench is the whole command; it returns the exit code.
func runBench(args []string, stdout io.Writer, pins map[string]string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloads := fs.String("workload", strings.Join(order, ","), "comma-separated workloads to run")
	seed := fs.Int64("seed", 42, "seed of the fleet and of the query windows")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time per workload in seconds; each workload's minimum reps always run")
	trace := fs.Int("trace", 0, "0 puts the end-to-end metrics in the summary line; 1 adds the traced run and puts the per-layer metrics there")
	scale := fs.String("scale", "full", "workload sizes: full, or smoke for a seconds-long check")
	jsonOut := fs.String("json", "", "write every metric's sample count, value and quartiles to this file")
	spans := fs.String("spans", "", "write the traced runs' spans to this file as NDJSON")
	child := fs.Bool("child", false, "run the one -workload in this process (set by the parent)")
	daemon := fs.String("daemon", "", "iobfleetd binary (set by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c := config{workloads: strings.Split(*workloads, ","), seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: *scale, jsonOut: *jsonOut, spans: *spans, daemon: *daemon}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace is 0 or 1, got %d", *trace)
	}
	if !(c.seconds >= 0) {
		return usage("-seconds must be non-negative, got %v", c.seconds)
	}
	if _, ok := scales[c.scale]; !ok {
		return usage("unknown -scale %q (full or smoke)", c.scale)
	}
	for _, w := range c.workloads {
		if !slices.Contains(order, w) {
			return usage("unknown workload %q (want %s)", w, strings.Join(order, ", "))
		}
	}
	if *child {
		return runChild(c, stdout)
	}
	return runParent(c, stdout, pins)
}

// outcome is what a child reports to its parent on stdout.
type outcome struct {
	Fingerprint string               `json:"fingerprint"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Failures    []string             `json:"failures"`
	Samples     map[string][]float64 `json:"samples"`
}

// runChild measures one workload in this process.
func runChild(c config, stdout io.Writer) int {
	name := c.workloads[0]
	p := scales[c.scale][name]
	rec := newRecorder()
	tr := newTracer(name)
	dir, err := os.MkdirTemp("", name+"-")
	if rec.op(err) {
		if p.daemon {
			runDaemonShards(c, p, rec, tr, dir)
		} else {
			runInProcess(c, p, rec, tr, dir)
		}
		rec.op(os.RemoveAll(dir))
	}
	if c.spans != "" {
		rec.op(tr.write(c.spans))
	}
	rec.finish(c.trace)
	err = json.NewEncoder(stdout).Encode(outcome{rec.fingerprint, rec.attempted, rec.failed, rec.failures, rec.samples})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// more reports whether another timed rep runs: until the workload's
// minimum is done, and after that while at least half a median rep of
// the measuring time remains.
func more(p params, start time.Time, seconds float64, reps []float64) bool {
	return len(reps) < p.reps || time.Since(start).Seconds()+median(reps)/2 < seconds
}

// workloadReport is one workload in the -json file.
type workloadReport struct {
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	Metrics     map[string]summary `json:"metrics"`
}

// runParent runs each workload in a child and reports.
func runParent(c config, stdout io.Writer, pins map[string]string) int {
	work, err := os.MkdirTemp("", "wiban-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	if c.spans != "" {
		if err := os.WriteFile(c.spans, nil, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	var buildErr error
	if slices.Contains(c.workloads, "daemon-shards") {
		// Built once, before any workload and outside every timed window.
		c.daemon = filepath.Join(work, "iobfleetd")
		build := exec.Command("go", "build", "-o", c.daemon, "wiban/cmd/iobfleetd")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			buildErr = fmt.Errorf("build iobfleetd: %w", err)
		}
	}

	reports := make(map[string]workloadReport)
	last := map[string]any{}
	correct, attempted, failed := true, 0, 0
	for _, name := range c.workloads {
		var o outcome
		if name == "daemon-shards" && buildErr != nil {
			o = failure(buildErr)
		} else {
			o = spawn(c, name)
		}
		key := fmt.Sprintf("%s/%s/%d", name, c.scale, c.seed)
		if want, ok := pins[key]; ok {
			o.Attempted++
			if o.Fingerprint != want {
				o.Failed++
				msg := fmt.Sprintf("%s fingerprint %s, pinned %s", key, o.Fingerprint, want)
				o.Failures = append(o.Failures, msg)
				fmt.Fprintln(os.Stderr, "bench: check failed:", msg)
			}
		}
		if o.Samples == nil {
			o.Samples = make(map[string][]float64)
		}
		o.Samples["failed_frac"] = []float64{float64(o.Failed) / float64(o.Attempted)}

		wr := workloadReport{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed,
			Failures: o.Failures, Fingerprint: o.Fingerprint, Metrics: make(map[string]summary)}
		for _, d := range catalog {
			samples := o.Samples[d.name]
			if len(samples) == 0 {
				continue
			}
			s := summarize(d, samples)
			wr.Metrics[d.name] = s
			fmt.Fprintf(stdout, "%s %s %s %s n=%d\n", name, d.name, strconv.FormatFloat(s.Value, 'g', -1, 64), d.unit, s.N)
			if d.class == endToEnd && !c.trace || d.class == perLayer && c.trace {
				k := d.name
				if len(c.workloads) > 1 {
					k = name + "/" + d.name
				}
				last[k] = map[string]any{"value": s.Value, "unit": d.unit}
			}
		}
		reports[name] = wr
		correct = correct && wr.Correct
		attempted += o.Attempted
		failed += o.Failed
	}

	if c.jsonOut != "" {
		trace := 0
		if c.trace {
			trace = 1
		}
		blob, err := json.MarshalIndent(map[string]any{
			"seed": c.seed, "seconds": c.seconds, "trace": trace, "scale": c.scale,
			"cpus": runtime.NumCPU(), "go": runtime.Version(), "date": time.Now().UTC().Format(time.RFC3339),
			"workloads": reports,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(c.jsonOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: -json:", err)
			correct = false
		}
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": last})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// failure is the outcome of a workload that could not run at all.
func failure(err error) outcome {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return outcome{Attempted: 1, Failed: 1, Failures: []string{err.Error()}}
}

// spawn runs one workload in a child process of this executable and
// returns what it reported.
func spawn(c config, name string) outcome {
	exe, err := os.Executable()
	if err != nil {
		return failure(err)
	}
	trace := "0"
	if c.trace {
		trace = "1"
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", trace, "-scale", c.scale,
		"-spans", c.spans, "-daemon", c.daemon}
	limit := time.Duration(c.seconds*float64(time.Second)) + 150*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return failure(fmt.Errorf("workload %s: %w", name, err))
	}
	var o outcome
	if err := json.Unmarshal(out.Bytes(), &o); err != nil {
		return failure(fmt.Errorf("workload %s: %w", name, err))
	}
	if o.Attempted == 0 {
		return failure(fmt.Errorf("workload %s attempted nothing", name))
	}
	return o
}
