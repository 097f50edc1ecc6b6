package obs

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact text a scraper sees: family order
// (sorted by name), HELP/TYPE lines, label rendering (sorted keys,
// escaped values), float formatting, and the histogram expansion to
// cumulative buckets plus _sum/_count. The Prometheus text format is a
// wire contract — a byte-level change here is a breaking change for
// every scraper, so this test is deliberately a full golden string.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_wearers_total", "Wearer simulations completed.", nil)
	c.Add(12345)
	r.NewCounter("test_sweeps_total", "Sweeps by terminal state.", Labels{"state": "completed"}).Add(3)
	r.NewCounter("test_sweeps_total", "Sweeps by terminal state.", Labels{"state": "failed"})
	r.NewGaugeFunc("test_window_depth", "Reorder-window occupancy.", nil, func() float64 { return 5 })
	r.NewGaugeFunc("test_alloc_bytes", "Heap bytes with \"quotes\" and\nnewline.", Labels{"kind": `va"l\ue`}, func() float64 { return 1.5e6 })
	h := r.NewHistogram("test_phase1_seconds", "Phase-1 latency.", nil, []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(30)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_alloc_bytes Heap bytes with "quotes" and\nnewline.
# TYPE test_alloc_bytes gauge
test_alloc_bytes{kind="va\"l\\ue"} 1.5e+06
# HELP test_phase1_seconds Phase-1 latency.
# TYPE test_phase1_seconds histogram
test_phase1_seconds_bucket{le="0.01"} 2
test_phase1_seconds_bucket{le="0.1"} 2
test_phase1_seconds_bucket{le="1"} 3
test_phase1_seconds_bucket{le="+Inf"} 4
test_phase1_seconds_sum 30.51
test_phase1_seconds_count 4
# HELP test_sweeps_total Sweeps by terminal state.
# TYPE test_sweeps_total counter
test_sweeps_total{state="completed"} 3
test_sweeps_total{state="failed"} 0
# HELP test_wearers_total Wearer simulations completed.
# TYPE test_wearers_total counter
test_wearers_total 12345
# HELP test_window_depth Reorder-window occupancy.
# TYPE test_window_depth gauge
test_window_depth 5
`
	if got := b.String(); got != want {
		t.Errorf("exposition diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLabeledHistogram pins the histogram expansion with a constant
// label set: the le label composes after the constant labels on every
// bucket, and _sum/_count carry the labels too.
func TestLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("test_seconds", "h", Labels{"phase": "gather"}, []float64{1})
	h.Observe(0.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_seconds h
# TYPE test_seconds histogram
test_seconds_bucket{phase="gather",le="1"} 1
test_seconds_bucket{phase="gather",le="+Inf"} 1
test_seconds_sum{phase="gather"} 0.5
test_seconds_count{phase="gather"} 1
`
	if got := b.String(); got != want {
		t.Errorf("labeled histogram:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistrationConflictsPanic pins the fail-fast contract: conflicting
// or malformed registrations die at wiring time.
func TestRegistrationConflictsPanic(t *testing.T) {
	for name, reg := range map[string]func(r *Registry){
		"bad metric name":   func(r *Registry) { r.NewCounter("7up", "h", nil) },
		"bad label name":    func(r *Registry) { r.NewCounter("ok_total", "h", Labels{"0bad": "v"}) },
		"reserved le label": func(r *Registry) { r.NewHistogram("ok_h", "h", Labels{"le": "x"}, []float64{1}) },
		"type conflict": func(r *Registry) {
			r.NewCounter("ok_total", "h", nil)
			r.NewGaugeFunc("ok_total", "h", nil, func() float64 { return 0 })
		},
		"help conflict":         func(r *Registry) { r.NewCounter("ok_total", "a", nil); r.NewCounter("ok_total", "b", Labels{"x": "y"}) },
		"duplicate series":      func(r *Registry) { r.NewCounter("ok_total", "h", nil); r.NewCounter("ok_total", "h", nil) },
		"empty buckets":         func(r *Registry) { r.NewHistogram("ok_h", "h", nil, nil) },
		"non-increasing bounds": func(r *Registry) { r.NewHistogram("ok_h", "h", nil, []float64{1, 1}) },
		"negative counter add":  func(r *Registry) { r.NewCounter("ok_total", "h", nil).Add(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			reg(NewRegistry())
		})
	}
}

// TestConcurrentUpdates hammers the counter and histogram from racing goroutines
// while a scraper renders, then checks exact totals — the lock-free
// update paths must not lose increments (run under -race in CI).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "h", nil)
	h := r.NewHistogram("h", "h", nil, []float64{10, 100})
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
				h.Observe(float64(j % 200))
				if j%100 == 0 {
					if err := r.WritePrometheus(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Errorf("counter %v, want %d", got, goroutines*per)
	}
	if got := h.Count(); got != goroutines*per {
		t.Errorf("histogram count %d, want %d", got, goroutines*per)
	}
	wantSum := float64(goroutines) * float64(per/200) * (199.0 * 200.0 / 2)
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum %v, want %v", got, wantSum)
	}
}

// TestHandler pins the scrape endpoint: content type and a rendered
// body, including the +Inf/NaN spellings the text format requires.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("inf_gauge", "h", nil, func() float64 { return math.Inf(1) })
	r.NewGaugeFunc("nan_gauge", "h", nil, func() float64 { return math.NaN() })
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inf_gauge +Inf\n", "nan_gauge NaN\n"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape body missing %q:\n%s", want, body)
		}
	}
}
