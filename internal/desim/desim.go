// Package desim holds the deterministic-simulation primitives the
// body-area-network simulator (internal/bannet) and the fleet engine
// build on: integer virtual Time, the seeded RNG NewRand, and the
// splitmix64 seed derivation DeriveSeed and Mix64.
//
// It also has a discrete-event scheduler, Simulator: callbacks kept in
// one slice sorted by time, with ties in scheduling order. bannet does
// not run on it — every bannet source is fixed-period, so its frame loop
// computes the same order in closed form — but the scheduler is the
// reference that order is tested against (bannet's FuzzKernelSchedule),
// and the benchmark harness times its dispatch.
//
// NewRand is math/rand's frozen rand.NewSource stream, bit for
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
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// String renders the time as seconds with full sub-second precision.
func (t Time) String() string { return fmt.Sprintf("%gs", t.Seconds()) }

// Handler is a scheduled callback. It runs when virtual time reaches its
// entry's time. A handler may schedule (After, Periodic); it must not
// re-enter the kernel through RunUntil or Reset.
type Handler func()

// entry is one scheduled callback: a one-shot (period 0) or a periodic
// source that re-arms itself every period.
type entry struct {
	at     Time
	period Time
	fn     Handler
}

// Simulator owns a virtual clock, a queue of scheduled entries and a
// deterministic RNG. The zero value is not usable; construct with New.
//
// The queue is one slice kept sorted by time, and among equal times in
// scheduling order: a new entry goes in after every entry due at or
// before its time. A driver arms a handful of sources (bannet's
// reference: at most 2·nodes+1), so an insertion scan beats a heap's
// sifts, and no tie-breaking sequence number is stored: the insert rule
// is the (time, sequence number) order a counter would give.
//
// A Simulator is reusable: Reset rewinds it to the freshly constructed
// state (new seed, empty queue, zero clock) while keeping the queue's
// capacity, so a driver that replays many scenarios on one kernel runs
// allocation-free in steady state.
type Simulator struct {
	now    Time
	q      []entry
	rng    *rand.Rand
	events uint64 // executed event count, for stats
}

// New returns a simulator whose RNG is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: NewRand(seed)}
}

// Reset rewinds the simulator to the state New(seed) constructs —
// identical RNG stream, empty queue, zero clock and counters — while
// retaining the queue's capacity. Handlers scheduled before the Reset
// never run.
func (s *Simulator) Reset(seed int64) {
	clear(s.q) // drop the stale handlers the retained capacity still holds
	s.q = s.q[:0]
	s.now = 0
	s.events = 0
	s.rng.Seed(seed)
}

// insert queues e after every entry due at or before e.at.
func (s *Simulator) insert(e entry) {
	s.q = append(s.q, e)
	i := len(s.q) - 1
	for ; i > 0 && s.q[i-1].at > e.at; i-- {
		s.q[i] = s.q[i-1]
	}
	s.q[i] = e
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

// After schedules fn to run once, delay after the current time.
func (s *Simulator) After(delay Time, fn Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("desim: negative delay %v", delay))
	}
	s.insert(entry{at: s.now + delay, fn: fn})
}

// Periodic schedules fn to run at now+first and then every period
// thereafter. The source is re-armed in place after each firing, at the
// point a handler rescheduling itself with After would be queued, so the
// two formulations dispatch identically. A periodic source never drains;
// drive the simulation with RunUntil.
func (s *Simulator) Periodic(first, period Time, fn Handler) {
	if period <= 0 {
		panic("desim: Periodic requires a positive period")
	}
	if first < 0 {
		panic(fmt.Sprintf("desim: negative delay %v", first))
	}
	s.insert(entry{at: s.now + first, period: period, fn: fn})
}

// RunUntil executes the entries due at or before end, in queue order,
// then sets the clock to end if it has not already passed it. Entries
// after end stay queued.
//
// A one-shot leaves the queue before its handler runs. A periodic entry
// stays at the head while its handler runs — anything the handler
// schedules is due no earlier than now, so it queues behind the head —
// and then has its period added and shifts right past every entry due at
// or before its new time, exactly where the insert rule would put it.
func (s *Simulator) RunUntil(end Time) {
	for len(s.q) > 0 && s.q[0].at <= end {
		e := s.q[0]
		s.now = e.at
		s.events++
		if e.period == 0 {
			n := copy(s.q, s.q[1:])
			s.q[n] = entry{}
			s.q = s.q[:n]
			e.fn()
			continue
		}
		e.fn()
		e.at += e.period
		q := s.q
		i := 0
		for ; i+1 < len(q) && q[i+1].at <= e.at; i++ {
			q[i] = q[i+1]
		}
		q[i] = e
	}
	if s.now < end {
		s.now = end
	}
}
