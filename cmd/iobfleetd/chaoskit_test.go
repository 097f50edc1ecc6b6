package main

// The seeded fault-injection toolkit behind the sustained chaos tests.
// It deliberately contains no fault machinery of its own — killing
// processes, draining daemons and cancelling sweeps belong to the
// harness that owns them — only the reproducibility substrate: a seeded
// schedule source (which event, when), a journal that records every
// decision so a failure's exact chaos sequence can be replayed from its
// seed, and a settle probe for the quiescence assertions (gauges at
// zero, goroutines back to baseline) that conclude a run.
//
// Determinism contract: for a fixed seed, the sequence of Intn /
// Between / Pick results is fixed. The wall-clock moments those picks
// get APPLIED still float with scheduling, so a chaos run is
// reproducible in distribution, not cycle-exact — which is what the
// byte-identity assertions need: the same seed re-explores the same
// decision sequence while the system under test must produce identical
// stores under any interleaving.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// chaosAction is one weighted entry in a chaos schedule: a named fault
// with a relative likelihood. Weights are relative integers, not
// probabilities; {kill:3, restart:1} makes kills three times as likely.
type chaosAction struct {
	Name   string
	Weight int
}

// chaos is a seeded schedule source plus its decision journal. Not safe
// for concurrent use: a chaos schedule is a single timeline, and
// driving it from one goroutine is what keeps a seed replayable.
type chaos struct {
	seed    int64
	rng     *rand.Rand
	journal []string
}

// newChaos returns a schedule source for the given seed. Same seed,
// same decision sequence.
func newChaos(seed int64) *chaos {
	return &chaos{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed this schedule was built from — stamp it into
// test logs so a failure names its replay.
func (c *chaos) Seed() int64 { return c.seed }

// Intn draws from [0, n) and journals the result.
func (c *chaos) Intn(n int) int {
	v := c.rng.Intn(n)
	c.Log("intn(%d)=%d", n, v)
	return v
}

// Between draws a duration uniformly from [lo, hi) — the spacing
// between injected faults. lo==hi returns lo.
func (c *chaos) Between(lo, hi time.Duration) time.Duration {
	d := lo
	if hi > lo {
		d = lo + time.Duration(c.rng.Int63n(int64(hi-lo)))
	}
	c.Log("between(%v,%v)=%v", lo, hi, d)
	return d
}

// Pick draws one action by weight. Zero- and negative-weight actions
// are never picked; an empty or all-unpickable schedule panics — that
// is a harness bug, not a chaos outcome.
func (c *chaos) Pick(actions []chaosAction) chaosAction {
	total := 0
	for _, a := range actions {
		if a.Weight > 0 {
			total += a.Weight
		}
	}
	if total == 0 {
		panic("chaos: no pickable action")
	}
	v := c.rng.Intn(total)
	for _, a := range actions {
		if a.Weight <= 0 {
			continue
		}
		if v -= a.Weight; v < 0 {
			c.Log("pick=%s", a.Name)
			return a
		}
	}
	panic("unreachable")
}

// Log appends a formatted line to the journal; harnesses also use it
// to record what each pick was applied to (which process was killed,
// which sweep cancelled).
func (c *chaos) Log(format string, args ...any) {
	c.journal = append(c.journal, fmt.Sprintf(format, args...))
}

// Journal renders the full decision history, one line per entry — the
// reproduction script a failing run prints next to its seed.
func (c *chaos) Journal() string {
	return strings.Join(c.journal, "\n")
}

// settle polls cond every poll until it holds or timeout elapses,
// reporting whether it settled. The quiescence assertions (queue
// gauges at zero, goroutine counts back to baseline) are eventually
// true after chaos stops, never instantly.
func settle(timeout, poll time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(poll)
	}
}

var testSchedule = []chaosAction{
	{Name: "kill", Weight: 3},
	{Name: "restart", Weight: 2},
	{Name: "cancel", Weight: 1},
	{Name: "never", Weight: 0},
}

// Same seed, same decision sequence — the property every chaos replay
// rests on.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() ([]string, string) {
		c := newChaos(42)
		var got []string
		for i := 0; i < 200; i++ {
			got = append(got, c.Pick(testSchedule).Name)
			got = append(got, c.Between(10*time.Millisecond, 50*time.Millisecond).String())
			got = append(got, string(rune('0'+c.Intn(10))))
		}
		return got, c.Journal()
	}
	a, ja := run()
	b, jb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across replays: %q vs %q", i, a[i], b[i])
		}
	}
	if ja != jb {
		t.Fatalf("journals diverged:\n%s\n--\n%s", ja, jb)
	}
	if c := newChaos(43); c.Pick(testSchedule).Name == a[0] && c.Pick(testSchedule).Name == a[3] && c.Pick(testSchedule).Name == a[6] {
		t.Log("seed 43 happens to open like seed 42; fine, but suspicious if every seed does")
	}
}

func TestChaosPickWeights(t *testing.T) {
	c := newChaos(7)
	counts := map[string]int{}
	const draws = 6000
	for i := 0; i < draws; i++ {
		counts[c.Pick(testSchedule).Name]++
	}
	if counts["never"] != 0 {
		t.Fatalf("zero-weight action picked %d times", counts["never"])
	}
	if counts["kill"]+counts["restart"]+counts["cancel"] != draws {
		t.Fatalf("draws leaked: %v", counts)
	}
	// kill:restart:cancel = 3:2:1; allow generous slack, this is a seeded
	// RNG so the counts are fixed for seed 7 anyway.
	if counts["kill"] <= counts["restart"] || counts["restart"] <= counts["cancel"] {
		t.Fatalf("weights not respected: %v", counts)
	}
}

func TestChaosBetweenBounds(t *testing.T) {
	c := newChaos(1)
	lo, hi := 5*time.Millisecond, 20*time.Millisecond
	for i := 0; i < 1000; i++ {
		if d := c.Between(lo, hi); d < lo || d >= hi {
			t.Fatalf("draw %d: %v outside [%v, %v)", i, d, lo, hi)
		}
	}
	if d := c.Between(lo, lo); d != lo {
		t.Fatalf("degenerate range: got %v, want %v", d, lo)
	}
}

func TestChaosJournalRecordsHarnessNotes(t *testing.T) {
	c := newChaos(3)
	c.Pick(testSchedule)
	c.Log("applied to pid %d", 1234)
	j := c.Journal()
	if !strings.Contains(j, "pick=") || !strings.Contains(j, "applied to pid 1234") {
		t.Fatalf("journal missing entries:\n%s", j)
	}
}

func TestSettle(t *testing.T) {
	n := 0
	if !settle(time.Second, time.Millisecond, func() bool { n++; return n >= 3 }) {
		t.Fatal("condition that becomes true did not settle")
	}
	if settle(10*time.Millisecond, time.Millisecond, func() bool { return false }) {
		t.Fatal("false condition settled")
	}
}
