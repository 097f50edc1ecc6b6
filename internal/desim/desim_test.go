package desim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(30*Millisecond, func() { order = append(order, 3) })
	s.After(10*Millisecond, func() { order = append(order, 1) })
	s.After(20*Millisecond, func() { order = append(order, 2) })
	s.RunUntil(30 * Millisecond)
	if s.Executed() != 3 {
		t.Errorf("executed %d events, want 3", s.Executed())
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.After(Second, func() { order = append(order, i) })
	}
	s.RunUntil(Second)
	if len(order) != 100 {
		t.Fatalf("ran %d same-time events, want 100", len(order))
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events ran out of submission order at %d: %v", i, order[:i+1])
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	s := New(1)
	var times []Time
	s.After(Second, func() {
		times = append(times, s.Now())
		s.After(2*Second, func() { times = append(times, s.Now()) })
	})
	s.RunUntil(Minute)
	if len(times) != 2 || times[0] != Second || times[1] != 3*Second {
		t.Errorf("times = %v, want [1s 3s]", times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

// TestEveryZeroPeriodPanics: Periodic refuses every non-positive period,
// since a source that re-arms at or before its own time would never let
// the clock move past it.
func TestEveryZeroPeriodPanics(t *testing.T) {
	for _, period := range []Time{0, -Millisecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Periodic with period %v did not panic", period)
				}
			}()
			New(1).Periodic(0, period, func() {})
		}()
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var ran []Time
	for _, at := range []Time{Second, 2 * Second, 3 * Second} {
		at := at
		s.After(at, func() { ran = append(ran, at) })
	}
	s.RunUntil(2 * Second)
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2", len(ran))
	}
	if s.Now() != 2*Second {
		t.Errorf("clock %v, want 2s", s.Now())
	}
	// Resume past the last event: the clock lands on end, not on it.
	s.RunUntil(4 * Second)
	if len(ran) != 3 || s.Now() != 4*Second {
		t.Errorf("after resume ran=%d now=%v", len(ran), s.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New(1)
	s.RunUntil(Minute)
	if s.Now() != Minute {
		t.Errorf("idle RunUntil left clock at %v, want 1min", s.Now())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var draws []int64
		s.Periodic(0, Millisecond, func() {
			draws = append(draws, s.Rand().Int63n(1000))
		})
		s.RunUntil(49 * Millisecond)
		if len(draws) != 50 {
			t.Fatalf("periodic source fired %d times in [0, 49ms], want 50", len(draws))
		}
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draws")
	}
}

// Property: random schedules always execute in nondecreasing time order.
func TestRandomScheduleOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		var executed []Time
		n := 200
		times := make([]Time, n)
		for i := range times {
			times[i] = Time(rng.Int63n(int64(Second)))
			at := times[i]
			s.After(at, func() { executed = append(executed, at) })
		}
		s.RunUntil(Second)
		if len(executed) != n {
			return false
		}
		if !sort.SliceIsSorted(executed, func(i, j int) bool { return executed[i] < executed[j] }) {
			return false
		}
		return s.Executed() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := FromSeconds(0.25e-6); got != 250*Nanosecond {
		t.Errorf("FromSeconds(0.25µs) = %v", got)
	}
	if Hour != 60*Minute {
		t.Error("time constants inconsistent")
	}
}

// TestPeriodicMatchesCallbackRescheduling pins the in-place re-arm
// against the classic self-rescheduling-callback formulation: both must
// interleave multiple sources — equal periods, periods that divide each
// other, a zero first delay — and a one-shot due mid-run in the identical
// order, because the fleet fingerprints were recorded under the callback
// formulation.
func TestPeriodicMatchesCallbackRescheduling(t *testing.T) {
	run := func(periodic bool) []string {
		s := New(9)
		var order []string
		mark := func(tag string) func() {
			return func() { order = append(order, fmt.Sprintf("%s@%v#%d", tag, s.Now(), s.Rand().Intn(100))) }
		}
		sources := []struct {
			tag           string
			first, period Time
		}{
			{"a", 10 * Millisecond, 10 * Millisecond},
			{"b", 10 * Millisecond, 15 * Millisecond},
			{"c", 5 * Millisecond, 25 * Millisecond},
			{"d", 0, 10 * Millisecond},
			{"e", 10 * Millisecond, 20 * Millisecond},
		}
		for _, src := range sources {
			fn := mark(src.tag)
			if periodic {
				s.Periodic(src.first, src.period, fn)
			} else {
				period := src.period
				var tick Handler
				tick = func() {
					fn()
					s.After(period, tick)
				}
				s.After(src.first, tick)
			}
		}
		s.After(20*Millisecond, mark("one-shot"))
		s.RunUntil(100 * Millisecond)
		return order
	}
	want := run(false)
	got := run(true)
	if len(got) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("periodic order diverged from callback rescheduling:\n got %v\nwant %v", got, want)
	}
}

// TestResetReplaysIdentically: a Reset simulator must replay the run of a
// freshly constructed one bit-for-bit — same RNG stream, same event
// count — and a source armed before the Reset must never run.
func TestResetReplaysIdentically(t *testing.T) {
	run := func(s *Simulator) ([]int64, uint64) {
		var draws []int64
		s.Periodic(Millisecond, Millisecond, func() {
			draws = append(draws, s.Rand().Int63n(1000))
		})
		s.RunUntil(50 * Millisecond)
		return draws, s.Executed()
	}
	fresh := New(77)
	wantDraws, wantEvents := run(fresh)

	s := New(1)
	s.Periodic(Second, Second, func() { t.Error("event from before Reset ran") })
	run(s) // dirty the clock, queue and RNG
	s.Reset(77)
	if s.Now() != 0 || s.Executed() != 0 || len(s.q) != 0 {
		t.Fatalf("Reset left state: now=%v executed=%d queued=%d", s.Now(), s.Executed(), len(s.q))
	}
	gotDraws, gotEvents := run(s)
	s.RunUntil(2 * Second) // past the stale source's first time
	if gotEvents != wantEvents {
		t.Fatalf("Reset replay executed %d events, fresh executed %d", gotEvents, wantEvents)
	}
	for i := range wantDraws {
		if gotDraws[i] != wantDraws[i] {
			t.Fatalf("Reset replay RNG diverged at draw %d: %d vs %d", i, gotDraws[i], wantDraws[i])
		}
	}
}

// TestKernelSteadyStateZeroAlloc pins the reuse contract the fleet
// engine's zero-allocation hot path is built on: once warm, a
// Reset-schedule-run cycle allocates nothing, one-shots included.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	s := New(1)
	var sink int64
	// Handlers are hoisted out of the cycle, the way a reusable driver
	// caches its tick closures: a fresh closure per cycle would itself be
	// the per-run allocation Reset's retained capacity exists to avoid.
	fast := func() { sink += s.Rand().Int63n(3) }
	slow := func() { sink++ }
	oneShot := func() { sink-- }
	spawn := func() { s.After(Time(s.Rand().Int63n(int64(500*Microsecond))), oneShot) }
	cycle := func() {
		s.Reset(42)
		s.Periodic(Millisecond, Millisecond, fast)
		s.Periodic(Millisecond, 7*Millisecond, slow)
		s.Periodic(0, 250*Microsecond, spawn)
		s.RunUntil(100 * Millisecond)
	}
	cycle() // warm the queue's capacity
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("steady-state kernel cycle allocates %.1f times per run, want 0", avg)
	}
}
