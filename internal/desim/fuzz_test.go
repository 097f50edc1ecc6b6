package desim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// FuzzEventOrder drives the kernel and a reference model with the same
// byte program — a mix of After, Periodic, RunUntil and Reset, with After
// and Periodic issued both at top level and from inside handlers — and
// requires identical traces: every dispatch's time, tag and RNG draw, and
// the clock, queue length and event count after every top-level op. The
// model is the obvious formulation: a slice kept ordered by an explicit
// (at, seq), popped before each handler runs and re-armed by a plain
// insert that takes the next seq.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	// Same-time ties at zero, handlers that schedule one-shots and
	// periodic sources, re-arms racing one-shots, and a Reset with stale
	// entries queued, over two RunUntil rounds each.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 2, 2, 0, 3, 4, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 3})
	f.Add([]byte{1, 4, 1, 1, 4, 3, 0, 4, 0, 8, 2, 6, 2, 4, 0, 3, 0, 2, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 5, 1, 0, 2, 2, 4})
	f.Add([]byte{1, 0, 0, 1, 0, 1, 2, 5, 3, 0, 1, 2, 0, 3, 1, 0, 0, 0, 0, 0, 0, 0, 2, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 1, 8, 7, 2, 20})
	rng := rand.New(rand.NewSource(1))
	// A deep queue: maxSchedules one-shots and periodic sources at
	// scattered times, then a RunUntil, so inserts and re-arms shift
	// across many entries.
	deep := []byte{}
	for i := 0; i < maxSchedules; i++ {
		if i%2 == 0 {
			deep = append(deep, 0, byte(rng.Intn(256))) // After(delay)
		} else {
			deep = append(deep, 1, byte(rng.Intn(256)), byte(rng.Intn(256))) // Periodic(first, period)
		}
	}
	f.Add(append(deep, 2, 63))
	for i := 0; i < 24; i++ {
		prog := make([]byte, 32+rng.Intn(224))
		rng.Read(prog)
		f.Add(prog)
	}
	// Equal periods (2 ms, one source with a zero first delay) and
	// periods that divide each other (1, 2, 4 and 8 ms from one first
	// time), armed after a Reset that drops a stale source and run in one
	// RunUntil at the end of the program, where handlers read zeros and
	// do nothing; then both mixed with one-shots.
	stale := []byte{1, 0, 0, 3, 9}
	equal := []byte{1, 4, 1, 1, 0, 1, 1, 4, 1}
	divide := []byte{1, 4, 0, 1, 4, 1, 1, 4, 3, 1, 4, 7}
	oneShots := []byte{0, 0, 0, 4, 0, 8}
	f.Add(slices.Concat(stale, equal, []byte{2, 40}))
	f.Add(slices.Concat(stale, divide, []byte{2, 40}))
	f.Add(slices.Concat(stale, equal, divide, oneShots, []byte{2, 30}))
	f.Fuzz(func(t *testing.T, prog []byte) {
		got := runProgram(&simKernel{New(7)}, prog)
		want := runProgram(newRefModel(7), prog)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("trace diverges at entry %d of %d/%d:\n got %+v\nwant %+v",
				i, len(got), len(want), got[max(0, i-3):min(len(got), i+1)], want[max(0, i-3):min(len(want), i+1)])
		}
	})
}

// kernel is the surface runProgram drives.
type kernel interface {
	after(d Time, fn Handler)
	periodic(first, period Time, fn Handler)
	runUntil(end Time)
	reset(seed int64)
	now() Time
	draw() int64
	pending() int
	executed() uint64
}

// traceEntry is one dispatch (tag ≥ 0, val = RNG draw) or one post-op
// state snapshot (tag −1, val = pending, count = executed).
type traceEntry struct {
	now   Time
	tag   int
	val   int64
	count uint64
}

func firstDiff(a, b []traceEntry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// maxSchedules bounds how many entries a program may schedule; past it
// schedule ops are no-ops. Every periodic period is at least 1 ms and a
// RunUntil spans under 64 ms, so this bounds the dispatches per RunUntil.
const maxSchedules = 64

// runProgram interprets prog against k. Top-level ops and handler
// reactions read from one byte cursor, so as long as both kernels
// dispatch identically they consume the program identically.
func runProgram(k kernel, prog []byte) []traceEntry {
	var trace []traceEntry
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	delay := func() Time { return Time(next()%16) * 250 * Microsecond }
	period := func() Time { return Time(next()%8+1) * Millisecond }
	scheduled := 0
	var handler func(tag int) Handler
	schedule := func(periodic bool) {
		if scheduled == maxSchedules {
			return
		}
		fn := handler(scheduled)
		scheduled++
		if periodic {
			k.periodic(delay(), period(), fn)
		} else {
			k.after(delay(), fn)
		}
	}
	handler = func(tag int) Handler {
		return func() {
			trace = append(trace, traceEntry{now: k.now(), tag: tag, val: k.draw()})
			switch next() % 4 {
			case 2:
				schedule(false)
			case 3:
				schedule(true)
			}
		}
	}
	for pos < len(prog) {
		switch next() % 4 {
		case 0:
			schedule(false)
		case 1:
			schedule(true)
		case 2:
			k.runUntil(k.now() + Time(next()%64)*Millisecond)
		case 3:
			k.reset(int64(next()))
		}
		trace = append(trace, traceEntry{now: k.now(), tag: -1, val: int64(k.pending()), count: k.executed()})
	}
	return trace
}

// simKernel adapts *Simulator to kernel.
type simKernel struct{ s *Simulator }

func (k simKernel) after(d Time, fn Handler) { k.s.After(d, fn) }
func (k simKernel) periodic(first, period Time, fn Handler) {
	k.s.Periodic(first, period, fn)
}
func (k simKernel) runUntil(end Time) { k.s.RunUntil(end) }
func (k simKernel) reset(seed int64)  { k.s.Reset(seed) }
func (k simKernel) now() Time         { return k.s.Now() }
func (k simKernel) draw() int64       { return k.s.Rand().Int63n(1 << 20) }
func (k simKernel) pending() int      { return len(k.s.q) }
func (k simKernel) executed() uint64  { return k.s.Executed() }

// refEvent is one scheduled callback of the reference model.
type refEvent struct {
	at     Time
	seq    uint64
	fn     Handler
	period Time
}

// refModel is the reference kernel: a slice kept sorted by (at, seq),
// seq counting every scheduling and every re-arm.
type refModel struct {
	clock Time
	seq   uint64
	queue []refEvent
	rng   *rand.Rand
	count uint64
}

func newRefModel(seed int64) *refModel {
	return &refModel{rng: rand.New(rand.NewSource(seed))}
}

// insert queues e at the next seq, in (at, seq) order.
func (m *refModel) insert(e refEvent) {
	e.seq = m.seq
	m.seq++
	i, _ := slices.BinarySearchFunc(m.queue, e, func(q, e refEvent) int {
		if c := cmp.Compare(q.at, e.at); c != 0 {
			return c
		}
		return cmp.Compare(q.seq, e.seq)
	})
	m.queue = slices.Insert(m.queue, i, e)
}

func (m *refModel) after(d Time, fn Handler) { m.insert(refEvent{at: m.clock + d, fn: fn}) }
func (m *refModel) periodic(first, period Time, fn Handler) {
	m.insert(refEvent{at: m.clock + first, fn: fn, period: period})
}

func (m *refModel) runUntil(end Time) {
	for len(m.queue) > 0 && m.queue[0].at <= end {
		e := m.queue[0]
		m.queue = slices.Delete(m.queue, 0, 1)
		m.clock = e.at
		m.count++
		e.fn()
		if e.period > 0 {
			e.at += e.period
			m.insert(e)
		}
	}
	m.clock = max(m.clock, end)
}

func (m *refModel) reset(seed int64) {
	m.queue = nil
	m.clock, m.seq, m.count = 0, 0, 0
	m.rng = rand.New(rand.NewSource(seed))
}

func (m *refModel) now() Time        { return m.clock }
func (m *refModel) draw() int64      { return m.rng.Int63n(1 << 20) }
func (m *refModel) pending() int     { return len(m.queue) }
func (m *refModel) executed() uint64 { return m.count }
