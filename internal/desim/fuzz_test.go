package desim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// FuzzEventOrder drives the kernel and a reference model with the same
// byte program — a mix of At, After, Periodic, Cancel, Halt, RunUntil, Run
// and Reset, issued both at top level and from inside handlers — and
// requires identical traces: every dispatch's time, tag and RNG draw, and
// the clock, queue length and event count after every top-level op. The
// model is the obvious formulation: a slice kept ordered by (at, seq),
// popped before each handler runs and re-armed by a plain insert.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	// Same-time ties, a periodic re-arm racing one-shots, cancels of a
	// running periodic event and a Reset with stale handles outstanding.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 1, 0, 5, 8, 2, 0, 3, 1, 0, 40})
	f.Add([]byte{2, 0, 1, 4, 2, 3, 2, 3, 6, 5, 30, 7, 9, 3, 0, 2, 0, 0, 6, 5, 60})
	f.Add([]byte{2, 2, 2, 9, 6, 0, 6, 6, 2, 3, 5, 4, 1, 6, 3, 2, 0, 5, 255, 7, 1, 5, 20})
	rng := rand.New(rand.NewSource(1))
	// A deep queue: 96 one-shots and periodic sources at scattered times,
	// then a Run, so sifts cross several heap levels.
	deep := []byte{}
	for i := 0; i < 96; i++ {
		deep = append(deep, byte(i%3), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	f.Add(append(deep, 6))
	for i := 0; i < 24; i++ {
		prog := make([]byte, 32+rng.Intn(224))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		got := runProgram(&simKernel{s: New(7)}, prog)
		want := runProgram(newRefModel(7), prog)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("trace diverges at entry %d of %d/%d:\n got %+v\nwant %+v",
				i, len(got), len(want), got[max(0, i-3):min(len(got), i+1)], want[max(0, i-3):min(len(want), i+1)])
		}
	})
}

// kernel is the surface runProgram drives. Handles index the scheduled
// events in scheduling order, identically on both implementations.
type kernel interface {
	at(at Time, fn Handler)
	after(d Time, fn Handler)
	periodic(first, period Time, fn Handler)
	cancel(handle int)
	handles() int
	halt()
	runUntil(end Time)
	run()
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

// maxDispatch bounds a program's dispatches: past it every handler halts,
// so Run returns even with periodic events armed.
const maxDispatch = 512

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
	var handler func(tag int) Handler
	schedule := func(op int) {
		fn := handler(k.handles())
		switch op {
		case 0:
			k.at(k.now()+delay(), fn)
		case 1:
			k.after(delay(), fn)
		default:
			k.periodic(delay(), period(), fn)
		}
	}
	handler = func(tag int) Handler {
		return func() {
			trace = append(trace, traceEntry{now: k.now(), tag: tag, val: k.draw()})
			if len(trace) >= maxDispatch {
				k.halt()
				return
			}
			switch op := next() % 8; op {
			case 0, 1, 2:
				schedule(op)
			case 3:
				if n := k.handles(); n > 0 {
					k.cancel(next() % n)
				}
			case 4:
				k.cancel(tag)
			case 5:
				k.halt()
			}
		}
	}
	for pos < len(prog) {
		switch op := next() % 8; op {
		case 0, 1, 2:
			schedule(op)
		case 3:
			if n := k.handles(); n > 0 {
				k.cancel(next() % n)
			}
		case 4:
			k.halt()
		case 5:
			k.runUntil(k.now() + Time(next())*Millisecond)
		case 6:
			k.run()
		case 7:
			k.reset(int64(next()))
		}
		trace = append(trace, traceEntry{now: k.now(), tag: -1, val: int64(k.pending()), count: k.executed()})
	}
	return trace
}

// simKernel adapts *Simulator to kernel.
type simKernel struct {
	s   *Simulator
	ids []EventID
}

func (k *simKernel) at(at Time, fn Handler)   { k.ids = append(k.ids, k.s.At(at, fn)) }
func (k *simKernel) after(d Time, fn Handler) { k.ids = append(k.ids, k.s.After(d, fn)) }
func (k *simKernel) periodic(first, period Time, fn Handler) {
	k.ids = append(k.ids, k.s.Periodic(first, period, fn))
}
func (k *simKernel) cancel(h int)      { k.s.Cancel(k.ids[h]) }
func (k *simKernel) handles() int      { return len(k.ids) }
func (k *simKernel) halt()             { k.s.Halt() }
func (k *simKernel) runUntil(end Time) { k.s.RunUntil(end) }
func (k *simKernel) run()              { k.s.Run() }
func (k *simKernel) reset(seed int64)  { k.s.Reset(seed) }
func (k *simKernel) now() Time         { return k.s.Now() }
func (k *simKernel) draw() int64       { return k.s.Rand().Int63n(1 << 20) }
func (k *simKernel) pending() int      { return k.s.Pending() }
func (k *simKernel) executed() uint64  { return k.s.Executed() }

// refEvent is one event of the reference model. dead marks an event that
// ran to completion, was reaped or was dropped by a reset: canceling it
// is a no-op.
type refEvent struct {
	at      Time
	seq     uint64
	fn      Handler
	period  Time
	stopped bool
	dead    bool
}

// refModel is the reference kernel: a slice kept sorted by (at, seq).
type refModel struct {
	clock  Time
	seq    uint64
	queue  []*refEvent
	all    []*refEvent
	rng    *rand.Rand
	halted bool
	count  uint64
}

func newRefModel(seed int64) *refModel {
	return &refModel{rng: rand.New(rand.NewSource(seed))}
}

func (m *refModel) insert(e *refEvent) {
	i, _ := slices.BinarySearchFunc(m.queue, e, func(q, e *refEvent) int {
		if c := cmp.Compare(q.at, e.at); c != 0 {
			return c
		}
		return cmp.Compare(q.seq, e.seq)
	})
	m.queue = slices.Insert(m.queue, i, e)
}

func (m *refModel) schedule(at Time, fn Handler, period Time) {
	if at < m.clock {
		panic("reference model: scheduling in the past")
	}
	e := &refEvent{at: at, seq: m.seq, fn: fn, period: period}
	m.seq++
	m.insert(e)
	m.all = append(m.all, e)
}

func (m *refModel) at(at Time, fn Handler)   { m.schedule(at, fn, 0) }
func (m *refModel) after(d Time, fn Handler) { m.schedule(m.clock+d, fn, 0) }
func (m *refModel) periodic(first, period Time, fn Handler) {
	m.schedule(m.clock+first, fn, period)
}

func (m *refModel) cancel(h int) {
	if e := m.all[h]; !e.dead {
		e.stopped = true
	}
}

func (m *refModel) step(end Time) bool {
	for len(m.queue) > 0 {
		e := m.queue[0]
		if e.stopped {
			m.queue = m.queue[1:]
			e.dead = true
			continue
		}
		if e.at > end {
			return false
		}
		m.queue = m.queue[1:]
		m.clock = e.at
		m.count++
		e.fn()
		if e.period > 0 && !e.stopped && !m.halted {
			e.at += e.period
			e.seq = m.seq
			m.seq++
			m.insert(e)
		} else {
			e.dead = true
		}
		return true
	}
	return false
}

func (m *refModel) runUntil(end Time) {
	m.halted = false
	for !m.halted && m.step(end) {
	}
	if m.clock < end && !m.halted {
		m.clock = end
	}
}

func (m *refModel) run() {
	m.halted = false
	for !m.halted && m.step(1<<63-1) {
	}
}

func (m *refModel) reset(seed int64) {
	for _, e := range m.queue {
		e.dead = true
	}
	m.queue = nil
	m.clock, m.seq, m.count, m.halted = 0, 0, 0, false
	m.rng = rand.New(rand.NewSource(seed))
}

func (m *refModel) handles() int     { return len(m.all) }
func (m *refModel) halt()            { m.halted = true }
func (m *refModel) now() Time        { return m.clock }
func (m *refModel) draw() int64      { return m.rng.Int63n(1 << 20) }
func (m *refModel) pending() int     { return len(m.queue) }
func (m *refModel) executed() uint64 { return m.count }
