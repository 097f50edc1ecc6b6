// Package obs is a dependency-free metrics registry with Prometheus
// text-format exposition (version 0.0.4, the format every Prometheus
// scraper speaks). It exists so the iobfleetd daemon can export live
// fleet-engine counters without pulling a client library into a
// repository whose only dependency is the standard library.
//
// The model is deliberately small: a metric is registered once with a
// constant label set and then updated through atomic operations —
// Counter (monotone float), Histogram (fixed-bucket cumulative
// distribution), and the func-backed CounterFunc/GaugeFunc that sample
// an external source (an atomic counter the fleet engine updates, a
// runtime.MemStats field) at scrape time. Several series may share one
// metric name with different label sets; the registry renders them under
// a single HELP/TYPE header, in registration order, with metric families
// sorted by name.
//
// All update paths are lock-free and allocation-free, safe for
// concurrent use from the engine's hot path; registration and exposition
// take the registry lock. Registration panics on a malformed or
// conflicting definition — metrics are wired at process start, and a
// typo'd name should kill the daemon in development, not corrupt a
// scrape in production.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is a constant label set attached to one series at registration.
// Keys are rendered in sorted order.
type Labels map[string]string

// Counter is a monotonically increasing metric. Updates are atomic;
// negative increments panic (use a GaugeFunc for values that go down).
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter by v (v >= 0).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		panic(fmt.Sprintf("obs: counter increment %v is not >= 0", v))
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram is a fixed-bucket cumulative distribution: Observe counts
// each sample into the first bucket whose upper bound admits it and
// accumulates the exact sum, matching the Prometheus histogram contract
// (_bucket series are cumulative, le="+Inf" equals _count).
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum reports the exact sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricType is the TYPE line vocabulary.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labeled instance under a family.
type series struct {
	labels string // pre-rendered {k="v",...} or ""
	read   func() float64
	hist   *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series []series
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// NewCounter registers and returns a counter series.
func (r *Registry) NewCounter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.register(name, help, typeCounter, labels, series{read: c.Value})
	return c
}

// NewCounterFunc registers a counter whose value is sampled from fn at
// scrape time — the bridge from an external monotone source (an atomic
// the fleet engine updates) to the exposition. fn must be monotone and
// safe for concurrent calls.
func (r *Registry) NewCounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, typeCounter, labels, series{read: fn})
}

// NewGaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(name, help, typeGauge, labels, series{read: fn})
}

// NewHistogram registers and returns a histogram series with the given
// bucket upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing at %v", name, bounds[i]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]atomic.Uint64, len(bounds))}
	r.register(name, help, typeHistogram, labels, series{hist: h})
	return h
}

// register validates and stores one series, panicking on conflicts: a
// name reused with a different type or help, a duplicate label set under
// one name, or an invalid metric/label name.
func (r *Registry) register(name, help string, typ metricType, labels Labels, s series) {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for k := range labels {
		if !validName(k) || k == "le" {
			panic("obs: invalid label name " + strconv.Quote(k) + " on metric " + name)
		}
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		r.families[name] = &family{name: name, help: help, typ: typ, series: []series{s}}
		return
	}
	if f.typ != typ || f.help != help {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (%q), was %s (%q)", name, typ, help, f.typ, f.help))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("obs: metric %s{%s} registered twice", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// validName is the Prometheus metric/label name charset:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// renderLabels renders a constant label set as k="v" pairs, sorted by
// key, with Prometheus escaping in the values.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeValue applies label-value escaping: backslash, double-quote and
// newline.
func escapeValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp applies HELP-line escaping: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample the way Prometheus expects: shortest
// round-trip float, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format 0.0.4:
// families sorted by name, one HELP and TYPE line each, series in
// registration order, histograms expanded to cumulative _bucket series
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			if f.typ == typeHistogram {
				writeHistogram(&b, f.name, s)
				continue
			}
			if s.labels == "" {
				fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(s.read()))
			} else {
				fmt.Fprintf(&b, "%s{%s} %s\n", f.name, s.labels, formatValue(s.read()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram expands one histogram series. Bucket counts are read
// low-to-high and accumulated, so a concurrent Observe can only make a
// rendered bucket momentarily under-count relative to _count — never
// violate cumulativity within the rendered buckets.
func writeHistogram(b *strings.Builder, name string, s series) {
	h := s.hist
	sep := ""
	if s.labels != "" {
		sep = s.labels + ","
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d\n", name, sep, formatValue(bound), cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, cum)
	if s.labels == "" {
		fmt.Fprintf(b, "%s_sum %s\n", name, formatValue(h.Sum()))
		fmt.Fprintf(b, "%s_count %d\n", name, cum)
	} else {
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, s.labels, formatValue(h.Sum()))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, s.labels, cum)
	}
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The response is already streaming; nothing useful to send.
			return
		}
	})
}
