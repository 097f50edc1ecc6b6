// Package desim is a deterministic discrete-event simulation kernel.
//
// It drives the body-area-network simulator (internal/bannet): virtual time
// advances from event to event, never by wall-clock sleeping, so a month of
// simulated wearable operation costs only as many events as actually occur.
//
// Determinism is a design requirement: the same seed and the same scenario
// must replay the identical event order, because the benchmark harness
// compares energy and latency figures across runs. To that end the kernel is
// single-threaded, events are queued in a 4-ary min-heap keyed on
// (time, sequence number) — the monotone sequence number breaks ties in
// scheduling order — and all randomness flows through the seeded RNG the
// simulator owns.
//
// That RNG is NewRand: math/rand's frozen rand.NewSource stream, bit for
// bit, from a source whose Seed is O(1) and which builds each of the 607
// state words on its first read. Seeding is the per-wearer cost of a
// fleet sweep (every wearer reseeds a scenario and a kernel stream, and a
// coupled sweep a load stream too), and most streams read only a fraction
// of the table; TestSourceMatchesMathRand and FuzzSource pin the stream to
// rand.NewSource's.
package desim

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in integer nanoseconds. Integer time
// makes event ordering exact (no float tie ambiguity) while one-nanosecond
// resolution comfortably resolves a 30 Mbps bit (33 ns).
type Time int64

// Time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
	Day         Time = 24 * Hour
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// String renders the time as seconds with full sub-second precision.
func (t Time) String() string { return fmt.Sprintf("%gs", t.Seconds()) }

// Handler is a scheduled callback. It runs when virtual time reaches the
// event's timestamp. A handler may schedule (At, After, Periodic, Every),
// Cancel and Halt; it must not re-enter the kernel through Run, RunUntil
// or Reset.
type Handler func()

// event is a pending callback. Events are recycled through the
// simulator's freelist: after a one-shot event runs (or a canceled event
// is reaped) its storage goes back to the arena, so a steady-state
// simulation — millions of events — allocates a bounded handful of event
// structs. gen counts recycles so a stale EventID held across a recycle
// can never cancel the event that now occupies the slot. The event's
// position in time lives in its queue slot, not here.
type event struct {
	fn      Handler
	period  Time // > 0: self-rearming periodic event (see Periodic)
	gen     uint32
	stopped bool
}

// EventID identifies a scheduled event so it can be canceled. It pins the
// event's recycle generation: an ID that outlives its event (the event
// ran, or the simulator was Reset) becomes an inert no-op for Cancel.
type EventID struct {
	ev  *event
	gen uint32
}

// slot is one queue entry. The ordering key is stored by value beside the
// event pointer, so a sift compares keys without following a pointer.
type slot struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	ev  *event
}

// before reports whether a sorts ahead of b. seq is unique per
// scheduling, so (at, seq) is a total order: every valid heap shape pops
// the identical sequence, which is what makes dispatch deterministic.
func (a slot) before(b slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of slots ordered by (at, seq). Four
// children per node halve the depth of a binary heap, and the children
// of one node share a cache line or two.
type eventQueue []slot

// push inserts x and sifts it up.
func (q *eventQueue) push(x slot) {
	*q = append(*q, x)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes and returns the head's event.
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	ev := h[0].ev
	h[0] = h[n]
	h[n] = slot{}
	*q = h[:n]
	if n > 0 {
		q.down()
	}
	return ev
}

// down restores the heap order after the head's key grew: the head slot
// sinks below every child that sorts ahead of it.
func (q eventQueue) down() {
	n := len(q)
	x := q[0]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(x) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = x
}

// Simulator owns a virtual clock, an event queue and a deterministic RNG.
// The zero value is not usable; construct with New.
//
// A Simulator is a reusable arena: Reset rewinds it to the freshly
// constructed state (new seed, empty queue, zero clock) while keeping the
// event freelist and queue capacity, so a driver that replays many
// scenarios on one kernel — the fleet engine's per-worker shards — runs
// allocation-free in steady state.
type Simulator struct {
	now    Time
	queue  eventQueue
	seq    uint64
	rng    *rand.Rand
	events uint64 // executed event count, for stats
	halted bool
	free   []*event // recycled event storage
}

// New returns a simulator whose RNG is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: NewRand(seed)}
}

// Reset rewinds the simulator to the state New(seed) constructs —
// identical RNG stream, empty queue, zero clock and counters — while
// retaining the event arena and queue capacity for reuse. Any EventID
// from before the Reset is inert.
func (s *Simulator) Reset(seed int64) {
	for _, x := range s.queue {
		s.recycle(x.ev)
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.events = 0
	s.halted = false
	s.rng.Seed(seed)
}

// schedule takes an event from the freelist (or the heap allocator on a
// cold arena), queues it at the next sequence number and returns its ID.
func (s *Simulator) schedule(at Time, fn Handler, period Time) EventID {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.fn, ev.period, ev.stopped = fn, period, false
	s.queue.push(slot{at, s.seq, ev})
	s.seq++
	return EventID{ev, ev.gen}
}

// recycle returns an event's storage to the arena. Bumping gen makes
// every outstanding EventID for this storage inert.
func (s *Simulator) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	s.free = append(s.free, ev)
}

// DeriveSeed expands one base seed into a family of decorrelated child
// seeds, one per stream index, using the splitmix64 finalizer. A fleet of
// independent simulations derives each member's seed as
// DeriveSeed(fleetSeed, member), which keeps every member reproducible
// from the single fleet seed while nearby indices (0, 1, 2, …) land on
// statistically unrelated RNG streams — sequential seeds fed straight to
// math/rand would correlate.
//
// The mapping is pure and stable: it is part of the replayability contract
// (recorded fleet fingerprints depend on it), so it must never change.
func DeriveSeed(base int64, stream uint64) int64 {
	// splitmix64: golden-gamma increment then the finalizer.
	return int64(Mix64(uint64(base) + 0x9e3779b97f4a7c15*(stream+1)))
}

// Mix64 is the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014):
// two xor-multiply rounds plus a closing xor-shift. It is the shared
// bit-mixing primitive behind DeriveSeed and every other pinned
// deterministic mapping in the repo (e.g. spectrum cell assignment);
// like DeriveSeed itself, its output must never change.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the simulator's deterministic random source. All model
// randomness (packet errors, jitter, harvester variation) must come from
// here so a run is reproducible from its seed. It is a NewRand generator:
// after New(seed) or Reset(seed) it yields exactly the stream of
// rand.New(rand.NewSource(seed)).
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have run so far.
func (s *Simulator) Executed() uint64 { return s.events }

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a model bug, and silently clamping would
// corrupt causality.
func (s *Simulator) At(at Time, fn Handler) EventID {
	if at < s.now {
		panic(fmt.Sprintf("desim: scheduling at %v before now %v", at, s.now))
	}
	return s.schedule(at, fn, 0)
}

// After schedules fn to run delay after the current time.
func (s *Simulator) After(delay Time, fn Handler) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("desim: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// Cancel prevents a scheduled event from running. Canceling an event that
// already ran (or was already canceled, or predates a Reset) is a
// harmless no-op: the EventID's generation no longer matches the recycled
// storage, so nothing is touched.
func (s *Simulator) Cancel(id EventID) {
	if id.ev != nil && id.ev.gen == id.gen {
		id.ev.stopped = true
	}
}

// Periodic schedules fn to run at now+first and then every period
// thereafter, until the returned ID is canceled. Unlike Every it carries
// no closure machinery: the kernel re-arms the same event storage after
// each firing (taking the next sequence number exactly where the
// callback-rescheduling pattern would), so a periodic source costs one
// arena event for the whole run. Halt stops the re-arm like it stops a
// self-rescheduling callback. A periodic event never drains on its own;
// drive the simulation with RunUntil or Cancel it before Run.
func (s *Simulator) Periodic(first, period Time, fn Handler) EventID {
	if period <= 0 {
		panic("desim: Periodic requires a positive period")
	}
	if first < 0 {
		panic(fmt.Sprintf("desim: negative delay %v", first))
	}
	return s.schedule(s.now+first, fn, period)
}

// Every schedules fn to run now+first, then every period thereafter, until
// the returned stop function is called. fn observes the simulator clock; a
// period must be positive. It is Periodic with a closure-shaped handle.
func (s *Simulator) Every(first, period Time, fn Handler) (stop func()) {
	id := s.Periodic(first, period, fn)
	return func() { s.Cancel(id) }
}

// Halt stops the run loop after the current event returns. Pending events
// stay queued (Run/RunUntil can be called again to resume).
func (s *Simulator) Halt() { s.halted = true }

// endOfTime is a bound no event time reaches; Run steps up to it.
const endOfTime = Time(1<<63 - 1)

// step executes the earliest pending event if its time is ≤ end, reaping
// canceled events on the way. It reports false once the queue is empty
// or its head lies after end. A one-shot event leaves the queue before
// its handler runs and is recycled after. A periodic event stays at the
// head while its handler runs — a handler can only schedule keys after
// the running (at, seq), so nothing displaces it — and then re-arms in
// place: it takes the next sequence number at exactly the point a
// self-rescheduling callback would have (after its handler returned) and
// sinks to its new position, so the event order is bit-identical to the
// closure formulation.
func (s *Simulator) step(end Time) bool {
	for len(s.queue) > 0 {
		head := s.queue[0]
		ev := head.ev
		if ev.stopped {
			s.recycle(s.queue.pop())
			continue
		}
		if head.at > end {
			return false
		}
		s.now = head.at
		s.events++
		if ev.period == 0 {
			s.queue.pop()
			ev.fn()
			s.recycle(ev)
			return true
		}
		ev.fn()
		if ev.stopped || s.halted {
			s.recycle(s.queue.pop())
			return true
		}
		s.queue[0].at += ev.period
		s.queue[0].seq = s.seq
		s.seq++
		s.queue.down()
		return true
	}
	return false
}

// Run executes events until the queue is empty or Halt is called, and
// returns the final virtual time.
func (s *Simulator) Run() Time {
	s.halted = false
	for !s.halted && s.step(endOfTime) {
	}
	return s.now
}

// RunUntil executes events with timestamps ≤ end, then sets the clock to
// end (if it has not already passed) and returns. Events after end remain
// queued.
func (s *Simulator) RunUntil(end Time) Time {
	s.halted = false
	for !s.halted && s.step(end) {
	}
	if s.now < end && !s.halted {
		s.now = end
	}
	return s.now
}

// Pending reports how many events are queued (including canceled events not
// yet reaped). Called from a periodic event's handler, the count includes
// that event: it stays queued while it runs.
func (s *Simulator) Pending() int { return len(s.queue) }
