package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wiban/internal/fleet"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// client carries the one closed-loop client's requests, one at a time.
var client = &http.Client{Timeout: 120 * time.Second}

// daemon is one iobfleetd process the benchmark started and owns.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	dir  string // its -data directory
}

// startDaemon starts iobfleetd on a free loopback port with its data in
// dir, and returns once the daemon has printed the address it listens on.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-data", dir}, args...)...)
	cmd.Stdout = &addrWriter{addr: addr}
	cmd.Stderr = os.Stderr
	// A daemon must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start iobfleetd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir}
	select {
	case d.base = <-addr:
		return d, nil
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("iobfleetd on %s printed no listen address", dir)
	}
}

// addrWriter is a daemon's stdout: it sends the URL of the first line,
// "iobfleetd: listening on http://ADDR (...)", and discards the rest.
type addrWriter struct {
	addr chan<- string
	line []byte
	done bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if !w.done {
		w.line = append(w.line, p...)
		if i := bytes.IndexByte(w.line, '\n'); i >= 0 {
			w.done = true
			for _, f := range strings.Fields(string(w.line[:i])) {
				if strings.HasPrefix(f, "http://") {
					w.addr <- f
				}
			}
		}
	}
	return len(p), nil
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("iobfleetd %s not healthy after 10s", d.base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM, which makes iobfleetd drain and exit 0, and waits
// for the exit; a daemon still running after 15 s is killed.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("iobfleetd %s: %w", d.base, err)
		}
		return nil
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("iobfleetd %s ignored SIGTERM for 15s", d.base)
	}
}

// sweepState is the part of iobfleetd's sweep state and progress events
// the benchmark reads.
type sweepState struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint"`
	Error       string `json:"error"`
	Final       bool   `json:"final"`
	Spec        struct {
		Label string `json:"label"`
	} `json:"spec"`
}

// submit posts a sweep and returns its ID and the POST's latency.
func (d *daemon) submit(body []byte) (string, time.Duration, error) {
	t0 := time.Now()
	resp, err := client.Post(d.base+"/api/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var st sweepState
	err = json.NewDecoder(resp.Body).Decode(&st)
	dt := time.Since(t0)
	if resp.StatusCode != http.StatusAccepted {
		return "", dt, fmt.Errorf("submit to %s: %s: %s", d.base, resp.Status, st.Error)
	}
	if err != nil {
		return "", dt, fmt.Errorf("submit to %s: %w", d.base, err)
	}
	return st.ID, dt, nil
}

// await follows a sweep's NDJSON progress stream to its final event and
// fails unless the sweep ended done.
func (d *daemon) await(id string) (sweepState, error) {
	resp, err := client.Get(d.base + "/api/sweeps/" + id + "/progress")
	if err != nil {
		return sweepState{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sweepState{}, fmt.Errorf("progress of %s on %s: %s", id, d.base, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev sweepState
		if err := dec.Decode(&ev); err != nil {
			return ev, fmt.Errorf("progress of %s on %s: %w", id, d.base, err)
		}
		if ev.Final {
			if ev.Status != "done" {
				return ev, fmt.Errorf("sweep %s on %s ended %s: %s", id, d.base, ev.Status, ev.Error)
			}
			return ev, nil
		}
	}
}

// findLabel returns the ID of the done sweep carrying a shard label.
func (d *daemon) findLabel(label string) (string, error) {
	resp, err := client.Get(d.base + "/api/sweeps")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var list []sweepState
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return "", fmt.Errorf("sweep list of %s: %w", d.base, err)
	}
	for _, st := range list {
		if st.Spec.Label == label && st.Status == "done" {
			return st.ID, nil
		}
	}
	return "", nil
}

// counters scrapes the unlabelled series of a daemon's /metrics.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// daemonFleet is the three-daemon loopback fleet: a coordinator that
// shards over two backends. Each daemon keeps its two newest finished
// sweeps, so the last pair's stores stay on disk for the traced step.
type daemonFleet struct {
	b0, b1, coord *daemon
}

func startFleet(bin, dir string) (*daemonFleet, error) {
	fl := &daemonFleet{}
	var err error
	if fl.b0, err = startDaemon(bin, filepath.Join(dir, "b0"), "-retain", "2"); err != nil {
		return nil, err
	}
	if fl.b1, err = startDaemon(bin, filepath.Join(dir, "b1"), "-retain", "2"); err != nil {
		fl.stop()
		return nil, err
	}
	if fl.coord, err = startDaemon(bin, filepath.Join(dir, "coord"), "-retain", "2",
		"-backends", fl.b0.base+","+fl.b1.base); err != nil {
		fl.stop()
		return nil, err
	}
	for _, d := range fl.all() {
		if err := d.waitHealthy(); err != nil {
			fl.stop()
			return nil, err
		}
	}
	return fl, nil
}

func (fl *daemonFleet) all() []*daemon {
	var ds []*daemon
	for _, d := range []*daemon{fl.coord, fl.b0, fl.b1} {
		if d != nil {
			ds = append(ds, d)
		}
	}
	return ds
}

// stop stops the coordinator, then the backends, and returns the first
// error.
func (fl *daemonFleet) stop() error {
	var first error
	for _, d := range fl.all() {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// resetPeakRSS restarts the three daemons' VmHWM at their current RSS.
func (fl *daemonFleet) resetPeakRSS() error {
	for _, d := range fl.all() {
		if err := resetPeakRSS(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB sums the three daemons' VmHWM.
func (fl *daemonFleet) peakRSSMB() (float64, error) {
	var sum float64
	for _, d := range fl.all() {
		mb, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// daemonJSON renders s as an iobfleetd sweep submission.
func (s sweepSpec) daemonJSON(seed int64, workers, shards int) []byte {
	gen := s.generator()
	body, err := json.Marshal(map[string]any{
		"wearers": s.wearers, "seed": seed, "dur_seconds": s.span, "workers": workers,
		"per_spread": gen.PERSpread, "batt_spread": gen.BatterySpread, "harvest_prob": gen.HarvesterProb,
		"drop_prob": gen.DropNodeProb, "ble_frac": gen.BLEFraction,
		"cells": s.cells(), "feedback": s.feedback,
		"series_seconds": s.series, "block_size": s.blockSize, "shards": shards,
	})
	if err != nil {
		panic(err) // a map of numbers and booleans always marshals
	}
	return body
}

// pairResult is one closed-loop pair: the sweep run unsharded on b0 with
// two workers, then the same sweep through the coordinator as two
// one-worker shards. Each time runs from submit to the final progress
// event.
type pairResult struct {
	single, sharded     time.Duration
	submits             []time.Duration
	singleID, shardedID string
	fingerprint         string
	digest              string // SHA-256 of the merged store
}

func (fl *daemonFleet) pair(s sweepSpec, seed int64, rec *recorder) (pairResult, bool) {
	var pr pairResult
	run := func(d *daemon, workers, shards int) (sweepState, time.Duration, bool) {
		t0 := time.Now()
		id, submit, err := d.submit(s.daemonJSON(seed, workers, shards))
		if !rec.op(err) {
			return sweepState{}, 0, false
		}
		pr.submits = append(pr.submits, submit)
		st, err := d.await(id)
		return st, time.Since(t0), rec.op(err)
	}
	single, dt, ok := run(fl.b0, 2, 0)
	if !ok {
		return pr, false
	}
	sharded, dt2, ok := run(fl.coord, 1, 2)
	if !ok {
		return pr, false
	}
	pr.single, pr.sharded = dt, dt2
	pr.singleID, pr.shardedID, pr.fingerprint = single.ID, sharded.ID, sharded.Fingerprint
	rec.check(single.Fingerprint == sharded.Fingerprint, "single fingerprint %s, sharded %s", single.Fingerprint, sharded.Fingerprint)
	_, singleDigest, err := digest(filepath.Join(fl.b0.dir, single.ID+".wtl"))
	if !rec.op(err) {
		return pr, false
	}
	_, pr.digest, err = digest(filepath.Join(fl.coord.dir, sharded.ID+".wtl"))
	if !rec.op(err) {
		return pr, false
	}
	rec.check(singleDigest == pr.digest, "single store %s, sharded store %s", singleDigest, pr.digest)
	return pr, true
}

// shard stats named on the coordinator's /metrics.
const (
	fetchBytesTotal = "iobfleetd_shard_fetch_bytes_total"
	retriesTotal    = "iobfleetd_shard_retries_total"
	stolenTotal     = "iobfleetd_shards_stolen_total"
)

// runDaemonShards is the child body of daemon-shards: set-up (daemons,
// health, a small warm-up pair; repeated to time it), timed pairs, and
// with -trace 1 the traced step.
func runDaemonShards(c config, p params, rec *recorder, tr *tracer, dir string) {
	s := p.sweep
	warm := s
	warm.wearers = p.warm
	var fl *daemonFleet
	for i := 0; i < p.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = childStart
		}
		var err error
		if fl, err = startFleet(c.daemon, filepath.Join(dir, fmt.Sprint("setup", i))); !rec.op(err) {
			return
		}
		if _, ok := fl.pair(warm, c.seed, rec); !ok {
			rec.op(fl.stop())
			return
		}
		rec.add("setup_s", time.Since(t0).Seconds())
		if i < p.setups-1 && !rec.op(fl.stop()) {
			return
		}
	}
	defer func() { rec.op(fl.stop()) }()

	before, err := fl.coord.counters()
	if !rec.op(err) {
		return
	}
	var single, sharded, pairs []float64
	var last pairResult
	start := time.Now()
	for i := 0; more(p, start, c.seconds, pairs); i++ {
		if !rec.op(fl.resetPeakRSS()) {
			return
		}
		t0 := time.Now()
		pr, ok := fl.pair(s, c.seed, rec)
		if !ok {
			return
		}
		pairs = append(pairs, time.Since(t0).Seconds())
		rss, err := fl.peakRSSMB()
		if !rec.op(err) {
			return
		}
		rec.add("peak_rss_mb", rss)
		single = append(single, pr.single.Seconds())
		sharded = append(sharded, pr.sharded.Seconds())
		rec.add("runs_per_s", float64(s.wearers)/pr.sharded.Seconds())
		rec.add("single_runs_per_s", float64(s.wearers)/pr.single.Seconds())
		for _, d := range pr.submits {
			rec.add("iobfleetd.submit_ms", float64(d)/1e6)
		}
		if i > 0 {
			rec.check(pr.digest == last.digest, "pair %d store %s, pair 0 %s", i, pr.digest, last.digest)
		}
		last = pr
	}
	rec.fingerprint = last.fingerprint
	after, err := fl.coord.counters()
	if !rec.op(err) {
		return
	}
	if c.trace {
		traceDaemon(s, rec, tr, fl, last, len(pairs), before, after, dir)
		rec.add("iobfleetd.sharding_speedup", median(single)/median(sharded))
		ref := sweepOut{fingerprint: last.fingerprint, digest: last.digest}
		if out, ok := traceInProcess(c, s, rec, tr, filepath.Join(dir, "ref.wtl"), ref, median(single)); ok {
			rec.add("desim.events", float64(out.events))
		}
	}
}

// traceDaemon fetches the last pair's shard stores over HTTP, merges them
// with telemetry.MergeShards, replays the coordinator's merged store, and
// turns the coordinator's counters over the timed pairs into ratios.
func traceDaemon(s sweepSpec, rec *recorder, tr *tracer, fl *daemonFleet, last pairResult, pairs int,
	before, after map[string]float64, dir string) {
	run := tr.begin("shards", benchShards, 8)
	defer run.end()
	var paths []string
	var fetched, committed int64
	var fetchTime time.Duration
	for k := 0; k < 2; k++ {
		label := fmt.Sprintf("%s/shard%d", last.shardedID, k)
		var id string
		var owner *daemon
		for _, d := range []*daemon{fl.b0, fl.b1} {
			got, err := d.findLabel(label)
			if !rec.op(err) {
				return
			}
			if got != "" {
				id, owner = got, d
			}
		}
		if !rec.check(owner != nil, "no backend holds shard %s", label) {
			return
		}
		path := filepath.Join(owner.dir, id+".wtl")
		paths = append(paths, path)
		_, off, _, err := telemetry.Committed(path)
		if !rec.op(err) {
			return
		}
		t0 := tr.now()
		body, err := fetchStore(owner, id)
		t1 := tr.now()
		if !rec.op(err) {
			return
		}
		run.add(iobfleetdFetch, t0, t1)
		fetchTime += time.Duration(t1 - t0)
		fetched += int64(len(body))
		committed += off
		stored, err := os.ReadFile(path)
		if rec.op(err) {
			rec.check(int64(len(stored)) >= off && bytes.Equal(body, stored[:off]),
				"shard %s served %d bytes that are not its %d committed bytes", label, len(body), off)
		}
	}
	rec.add("iobfleetd.fetch_MBps", float64(fetched)/fetchTime.Seconds()/1e6)

	merged := filepath.Join(dir, "merged.wtl")
	agg := fleet.NewStreamAggregator(units.Duration(s.span))
	t0 := tr.now()
	blocks, size, err := telemetry.MergeShards(merged, paths, agg.Consume)
	t1 := tr.now()
	if !rec.op(err) {
		return
	}
	run.add(telemetryMerge, t0, t1)
	mergeS := time.Duration(t1 - t0).Seconds()
	rec.add("telemetry.merge_s", mergeS)
	rec.add("telemetry.merge_MBps", float64(size)/mergeS/1e6)
	rec.add("telemetry.blocks", float64(blocks))
	rec.add("telemetry.store_bytes", float64(size))
	rec.check(agg.Report().Fingerprint() == last.fingerprint, "MergeShards fingerprint differs from the sweep's")
	_, mergedDigest, err := digest(merged)
	if rec.op(err) {
		rec.check(mergedDigest == last.digest, "MergeShards store %s, coordinator store %s", mergedDigest, last.digest)
	}
	removeStore(merged)

	t0 = tr.now()
	rb, err := readStore(filepath.Join(fl.coord.dir, last.shardedID+".wtl"), s.span, nil)
	run.add(telemetryReplay, t0, tr.now())
	if rec.op(err) {
		rec.add("telemetry.decode_records_per_s", rb.replayPerS)
		rec.check(rb.replayFP == last.fingerprint, "replay fingerprint %s, sweep %s", rb.replayFP, last.fingerprint)
	}

	for _, name := range []string{fetchBytesTotal, retriesTotal, stolenTotal} {
		_, ok := after[name]
		rec.check(ok, "coordinator /metrics has no %s", name)
	}
	rec.add("iobfleetd.fetch_amplification", (after[fetchBytesTotal]-before[fetchBytesTotal])/float64(int64(pairs)*committed))
	rec.add("iobfleetd.shard_retries", after[retriesTotal]-before[retriesTotal])
	rec.add("iobfleetd.shards_stolen", after[stolenTotal]-before[stolenTotal])
}

// fetchStore reads a sweep's committed store bytes over HTTP, the way a
// coordinator replicates a shard.
func fetchStore(d *daemon, id string) ([]byte, error) {
	resp, err := client.Get(d.base + "/api/sweeps/" + id + "/store")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("store of %s on %s: %s", id, d.base, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
