package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// layer names what a span timed.
type layer uint8

const (
	// fleetEngine is the root of a traced sweep; its self time is the
	// engine's own work between the layer calls.
	fleetEngine layer = iota
	fleetScenario
	bannetKernel
	telemetryEncodeCommit
	fleetAggregate
	spectrumPhase1
	telemetryClose
	// benchShards is the root of daemon-shards' shard read-back.
	benchShards
	iobfleetdFetch
	telemetryMerge
	telemetryReplay
)

var layerNames = [...]string{"fleet.engine", "fleet.scenario", "bannet.kernel", "telemetry.encode_commit",
	"fleet.aggregate", "spectrum.phase1", "telemetry.close", "bench.shards", "iobfleetd.fetch",
	"telemetry.merge", "telemetry.replay"}

func (l layer) String() string { return layerNames[l] }

// span is one timed call into a layer, in nanoseconds since the tracer's
// base on the monotonic clock. It holds no pointers, so the garbage
// collector never scans the span arrays of a traced run.
type span struct {
	layer      layer
	parent     int32 // index of the enclosing span in its run, -1 for the root
	start, end int64
}

// tracer records the spans of one workload's traced runs, timed from the
// benchmark's side of each call. Spans stay in memory until the child
// exits; -spans FILE writes them as NDJSON.
type tracer struct {
	workload string
	base     time.Time
	runs     []*traceRun
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// traceRun is the span list of one traced run; spans[0] is its root and
// every other span is a child of the root.
type traceRun struct {
	t     *tracer
	name  string
	spans []span
}

// begin opens a run whose root span is root, starting now; the span file
// names it name-<ordinal>. capacity preallocates room for the run's spans,
// so recording does not grow a slice inside the timed window.
func (t *tracer) begin(name string, root layer, capacity int) *traceRun {
	r := &traceRun{t: t, name: fmt.Sprint(name, "-", len(t.runs)), spans: make([]span, 1, capacity+1)}
	r.spans[0] = span{layer: root, parent: -1, start: t.now()}
	t.runs = append(t.runs, r)
	return r
}

// add records a child span of the root.
func (r *traceRun) add(l layer, start, end int64) {
	r.spans = append(r.spans, span{layer: l, start: start, end: end})
}

// end closes the root span and returns its duration.
func (r *traceRun) end() time.Duration {
	r.spans[0].end = r.t.now()
	return time.Duration(r.spans[0].end - r.spans[0].start)
}

// selfTimes sums, per layer, each span's self time: its duration
// minus the part of its interval that its children cover. Children that
// overlap each other or stick out of their parent are counted once and
// clipped, so the self times of a run add up to its root's duration only
// when the layers really ran one after another.
func selfTimes(spans []span) map[layer]time.Duration {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			p := spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if lo < hi {
				children[s.parent] = append(children[s.parent], [2]int64{lo, hi})
			}
		}
	}
	self := make(map[layer]time.Duration)
	for i, s := range spans {
		iv := children[int32(i)]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		var covered, reach int64
		for _, c := range iv {
			if lo := max(c[0], reach); c[1] > lo {
				covered += c[1] - lo
			}
			reach = max(reach, c[1])
		}
		self[s.layer] += time.Duration(s.end - s.start - covered)
	}
	return self
}

// spanJSON is one line of the -spans file.
type spanJSON struct {
	Workload string `json:"workload"`
	Run      string `json:"run"`
	Name     string `json:"name"`
	Parent   int32  `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// write appends every recorded span to path.
func (t *tracer) write(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range t.runs {
		for _, s := range r.spans {
			if err := enc.Encode(spanJSON{t.workload, r.name, s.layer.String(), s.parent, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
