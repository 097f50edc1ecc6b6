package spectrum

import (
	"math"
	"math/rand"
	"testing"
)

// TestRetryMultiplier pins the truncated geometric series against direct
// summation and its boundary behavior.
func TestRetryMultiplier(t *testing.T) {
	if got := RetryMultiplier(0, 5); got != 1 {
		t.Errorf("p=0: multiplier %v, want 1", got)
	}
	if got := RetryMultiplier(0.7, 0); got != 1 {
		t.Errorf("retries=0: multiplier %v, want 1", got)
	}
	if got := RetryMultiplier(1, 3); got != 4 {
		t.Errorf("p=1 retries=3: multiplier %v, want 4 attempts", got)
	}
	for _, p := range []float64{0.1, 0.5, 0.95} {
		for retries := 1; retries <= 7; retries++ {
			want := 0.0
			for k := 0; k <= retries; k++ {
				want += math.Pow(p, float64(k))
			}
			if got := RetryMultiplier(p, retries); math.Abs(got-want) > 1e-12 {
				t.Errorf("p=%g retries=%d: multiplier %v, want %v", p, retries, got, want)
			}
		}
	}
	// Monotone in both arguments.
	if RetryMultiplier(0.6, 3) <= RetryMultiplier(0.3, 3) {
		t.Error("multiplier not increasing in p")
	}
	if RetryMultiplier(0.6, 5) <= RetryMultiplier(0.6, 3) {
		t.Error("multiplier not increasing in retries")
	}
}

// TestInflatePPM pins the integer inflation: never below the base, never
// above 100% duty, and exactly the base at zero collisions.
func TestInflatePPM(t *testing.T) {
	for _, c := range []struct {
		base    int64
		p       float64
		retries int
		want    int64
	}{
		{0, 0.9, 7, 0},
		{100_000, 0, 7, 100_000},
		{100_000, 0.5, 1, 150_000}, // 1 + 0.5
		{400_000, 0.95, 7, PPM},    // saturates at 100% duty
		{1, 0.5, 1, 2},             // rounds half up
		{PPM, 0.9, 7, PPM},         // full duty stays capped
	} {
		if got := InflatePPM(c.base, c.p, c.retries); got != c.want {
			t.Errorf("InflatePPM(%d, %g, %d) = %d, want %d", c.base, c.p, c.retries, got, c.want)
		}
	}
	// Inflation never shrinks a load.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		base := int64(rng.Intn(PPM + 1))
		p := rng.Float64() * 0.95
		retries := rng.Intn(8)
		if got := InflatePPM(base, p, retries); got < base {
			t.Fatalf("InflatePPM(%d, %g, %d) = %d < base", base, p, retries, got)
		}
	}
}

// randomMembers builds one cell's worth of randomized contenders.
func randomMembers(rng *rand.Rand, cell, maxMembers int) []Member {
	n := 1 + rng.Intn(maxMembers)
	members := make([]Member, n)
	for i := range members {
		nodes := make([]NodeLoad, 1+rng.Intn(4))
		for j := range nodes {
			nodes[j] = NodeLoad{BasePPM: int64(rng.Intn(PPM + 1)), Retries: rng.Intn(8)}
		}
		members[i] = Member{Cell: cell, Nodes: nodes}
	}
	return members
}

// TestEquilibriumConvergesOnRandomCells is the fixed-point property test:
// for the default β > 0 model the damped iteration must converge within
// the default iteration cap across a randomized sweep of cell loads —
// i.e. the reported round count is strictly below DefaultMaxIters, so
// the cap never truncated — and the equilibrium must dominate the
// first-order loads (retransmissions only add airtime).
func TestEquilibriumConvergesOnRandomCells(t *testing.T) {
	e := &Equilibrium{}
	worst := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		members := randomMembers(rng, 0, 30)
		res, err := e.Solve(1, members)
		if err != nil {
			t.Fatal(err)
		}
		if it := res.Iters(0); it >= DefaultMaxIters {
			t.Fatalf("seed %d: cell hit the %d-round cap without converging", seed, DefaultMaxIters)
		} else if it > worst {
			worst = it
		}
		var firstTotal int64
		for i, m := range members {
			var base int64
			for _, n := range m.Nodes {
				base += n.BasePPM
			}
			firstTotal += base
			if own := res.OwnPPM(i); own < base {
				t.Fatalf("seed %d member %d: equilibrium own load %d < first-order %d", seed, i, own, base)
			}
			// Equilibrium foreign load dominates first-order foreign load.
			if int64(len(m.Nodes))*PPM < base {
				t.Fatalf("impossible: base above aggregate duty cap")
			}
		}
		if eqTotal := res.table.TotalPPM(0); eqTotal < firstTotal {
			t.Fatalf("seed %d: equilibrium cell total %d < first-order total %d", seed, eqTotal, firstTotal)
		}
		// Per-member foreign monotonicity: Σ_{j≠i} eq_j ≥ Σ_{j≠i} base_j.
		for i, m := range members {
			var base int64
			for _, n := range m.Nodes {
				base += n.BasePPM
			}
			firstForeign := firstTotal - base
			if eqForeign := res.ForeignPPM(i, 0); eqForeign < firstForeign {
				t.Fatalf("seed %d member %d: equilibrium foreign %d < first-order foreign %d",
					seed, i, eqForeign, firstForeign)
			}
		}
	}
	t.Logf("worst convergence over the sweep: %d rounds (cap %d)", worst, DefaultMaxIters)
	if worst == 0 {
		t.Fatal("sweep never exercised a non-trivial fixed point")
	}
}

// TestEquilibriumLoneWearerExact pins the density-1 boundary: a member
// alone in its cell sees zero foreign load, so its equilibrium is its
// first-order load exactly and the fixed point takes zero rounds.
func TestEquilibriumLoneWearerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const cells = 64
	members := make([]Member, cells)
	var bases [cells]int64
	for c := 0; c < cells; c++ {
		m := randomMembers(rng, c, 1)[0]
		members[c] = m
		for _, n := range m.Nodes {
			bases[c] += n.BasePPM
		}
	}
	res, err := (&Equilibrium{}).Solve(cells, members)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cells; c++ {
		if got := res.OwnPPM(c); got != bases[c] {
			t.Errorf("cell %d: lone wearer equilibrium %d != first-order %d", c, got, bases[c])
		}
		if got := res.ForeignPPM(c, c); got != 0 {
			t.Errorf("cell %d: lone wearer sees foreign load %d", c, got)
		}
		if got := res.Iters(c); got != 0 {
			t.Errorf("cell %d: lone wearer took %d fixed-point rounds", c, got)
		}
	}
}

// TestEquilibriumDeterministic: two solves of identical inputs are
// bit-identical — the engine's worker-invariance rests on this.
func TestEquilibriumDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var members []Member
	for c := 0; c < 8; c++ {
		members = append(members, randomMembers(rng, c, 12)...)
	}
	e := &Equilibrium{MaxIters: 500, TolPPM: 1}
	a, err := e.Solve(8, members)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Solve(8, members)
	if err != nil {
		t.Fatal(err)
	}
	for i := range members {
		if a.OwnPPM(i) != b.OwnPPM(i) {
			t.Fatalf("member %d: %d vs %d across identical solves", i, a.OwnPPM(i), b.OwnPPM(i))
		}
	}
	for c := 0; c < 8; c++ {
		if a.Iters(c) != b.Iters(c) || a.table.TotalPPM(c) != b.table.TotalPPM(c) {
			t.Fatalf("cell %d diverged across identical solves", c)
		}
	}
}

// TestEquilibriumTighterToleranceDominates: shrinking the tolerance can
// only move loads up (the iterate is monotone), and a looser tolerance
// stops earlier.
func TestEquilibriumTighterToleranceDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	members := randomMembers(rng, 0, 10)
	loose, err := (&Equilibrium{TolPPM: 10_000}).Solve(1, members)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := (&Equilibrium{TolPPM: 1}).Solve(1, members)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Iters(0) > tight.Iters(0) {
		t.Errorf("loose tolerance took %d rounds, tight %d", loose.Iters(0), tight.Iters(0))
	}
	for i := range members {
		if tight.OwnPPM(i) < loose.OwnPPM(i) {
			t.Errorf("member %d: tight-tolerance load %d below loose %d", i, tight.OwnPPM(i), loose.OwnPPM(i))
		}
	}
}

// TestEquilibriumMaxItersCaps: a one-round cap must stop the iteration
// of a cell that genuinely needs more rounds and report exactly the cap.
func TestEquilibriumMaxItersCaps(t *testing.T) {
	members := []Member{
		{Cell: 0, Nodes: []NodeLoad{{BasePPM: 400_000, Retries: 7}}},
		{Cell: 0, Nodes: []NodeLoad{{BasePPM: 400_000, Retries: 7}}},
	}
	full, err := (&Equilibrium{}).Solve(1, members)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iters(0) < 2 {
		t.Fatalf("reference cell converged in %d rounds; pick heavier loads", full.Iters(0))
	}
	res, err := (&Equilibrium{MaxIters: 1}).Solve(1, members)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Iters(0); got != 1 {
		t.Fatalf("capped solve reports %d rounds, want 1", got)
	}
	// The capped solve stopped early, so its loads sit at or below the
	// converged ones.
	for i := range members {
		if res.OwnPPM(i) > full.OwnPPM(i) {
			t.Errorf("member %d: capped load %d above converged %d", i, res.OwnPPM(i), full.OwnPPM(i))
		}
	}
}

// TestEquilibriumValidation covers solver- and member-level input guards.
func TestEquilibriumValidation(t *testing.T) {
	ok := []Member{{Cell: 0, Nodes: []NodeLoad{{BasePPM: 1000, Retries: 3}}}}
	if _, err := (&Equilibrium{}).Solve(0, ok); err == nil {
		t.Error("zero cells accepted")
	}
	if _, err := (&Equilibrium{MaxIters: -1}).Solve(1, ok); err == nil {
		t.Error("negative iteration cap accepted")
	}
	if _, err := (&Equilibrium{TolPPM: -1}).Solve(1, ok); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := (&Equilibrium{Model: &Model{Beta: -1, MaxCollision: 0.9}}).Solve(1, ok); err == nil {
		t.Error("invalid model accepted")
	}
	for name, bad := range map[string][]Member{
		"cell out of range": {{Cell: 5, Nodes: []NodeLoad{{BasePPM: 1}}}},
		"negative cell":     {{Cell: -1}},
		"negative load":     {{Cell: 0, Nodes: []NodeLoad{{BasePPM: -1}}}},
		"load above duty":   {{Cell: 0, Nodes: []NodeLoad{{BasePPM: PPM + 1}}}},
		"negative retries":  {{Cell: 0, Nodes: []NodeLoad{{BasePPM: 1, Retries: -1}}}},
	} {
		if _, err := (&Equilibrium{}).Solve(4, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestEquilibriumEmptyMembers: a body-channel-only population has no
// radiative load anywhere — every equilibrium is zero, instantly.
func TestEquilibriumEmptyMembers(t *testing.T) {
	members := []Member{{Cell: 0}, {Cell: 0}, {Cell: 1}}
	res, err := (&Equilibrium{}).Solve(2, members)
	if err != nil {
		t.Fatal(err)
	}
	for i := range members {
		if res.OwnPPM(i) != 0 {
			t.Errorf("member %d: empty member carries load %d", i, res.OwnPPM(i))
		}
	}
	if res.Iters(0) != 0 || res.Iters(1) != 0 {
		t.Error("zero-load cells took fixed-point rounds")
	}
}
