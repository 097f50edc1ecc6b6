package spectrum

import (
	"math"
	"testing"
)

// TestCellOfDeterministicAndInRange: the assignment is a pure function
// and always lands inside [0, cells).
func TestCellOfDeterministicAndInRange(t *testing.T) {
	for _, cells := range []int{1, 2, 7, 64} {
		for seed := int64(-500); seed < 500; seed += 13 {
			a := CellOf(seed, cells)
			if a != CellOf(seed, cells) {
				t.Fatalf("cells=%d seed=%d: assignment not deterministic", cells, seed)
			}
			if a < 0 || a >= cells {
				t.Fatalf("cells=%d seed=%d: cell %d out of range", cells, seed, a)
			}
		}
	}
	if CellOf(12345, 1) != 0 || CellOf(12345, 0) != 0 {
		t.Fatal("degenerate cell counts must map to cell 0")
	}
}

// TestCellOfSpreads: the hash must not collapse consecutive seeds into a
// few cells — every cell of a small table gets populated by a modest
// seed range.
func TestCellOfSpreads(t *testing.T) {
	const cells = 16
	seen := make([]int, cells)
	for seed := int64(0); seed < 512; seed++ {
		seen[CellOf(seed, cells)]++
	}
	for c, n := range seen {
		if n == 0 {
			t.Fatalf("cell %d never assigned over 512 consecutive seeds", c)
		}
	}
}

// TestLoadTableForeignExcludesSelf: a lone wearer sees zero foreign
// load; a cohabited cell sees exactly the others' load.
func TestLoadTableForeignExcludesSelf(t *testing.T) {
	tab, err := NewLoadTable(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, add := range []struct {
		cell int
		ppm  int64
	}{{0, 1000}, {1, 2000}, {1, 3000}, {1, 500}} {
		if err := tab.Add(add.cell, add.ppm); err != nil {
			t.Fatal(err)
		}
	}
	if got := tab.ForeignPPM(0, 1000); got != 0 {
		t.Fatalf("lone wearer sees foreign load %d", got)
	}
	if got := tab.ForeignPPM(1, 2000); got != 3500 {
		t.Fatalf("cohabited cell foreign load %d, want 3500", got)
	}
	if got := tab.ForeignPPM(2, 0); got != 0 {
		t.Fatalf("empty cell foreign load %d", got)
	}
	if got := tab.ForeignPPM(3, 100); got != 0 {
		t.Fatal("foreign load must clamp at zero when own share exceeds the total")
	}
	if err := tab.Add(4, 1); err == nil {
		t.Fatal("Add accepted an out-of-range cell")
	}
	if _, err := NewLoadTable(0); err == nil {
		t.Fatal("NewLoadTable accepted zero cells")
	}
}

// TestLoadTableMergeCommutes: merging per-worker partials in any order
// yields identical totals (the phase-1 order-independence contract).
func TestLoadTableMergeCommutes(t *testing.T) {
	mk := func(vals ...int64) *LoadTable {
		tab, _ := NewLoadTable(3)
		for c, v := range vals {
			tab.Add(c%3, v)
		}
		return tab
	}
	a := mk(5, 7, 11, 13)
	b := mk(2, 3)
	ab, _ := NewLoadTable(3)
	ab.Merge(a)
	ab.Merge(b)
	ba, _ := NewLoadTable(3)
	ba.Merge(b)
	ba.Merge(a)
	for c := 0; c < 3; c++ {
		if ab.TotalPPM(c) != ba.TotalPPM(c) {
			t.Fatalf("cell %d: merge order changed the total (%d vs %d)",
				c, ab.TotalPPM(c), ba.TotalPPM(c))
		}
	}
	if err := ab.Merge(mustTable(t, 2)); err == nil {
		t.Fatal("Merge accepted a mismatched cell count")
	}
}

func mustTable(t *testing.T, cells int) *LoadTable {
	t.Helper()
	tab, err := NewLoadTable(cells)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestModelCollisionCurve: zero at zero load, strictly increasing, and
// capped.
func TestModelCollisionCurve(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	if p := m.CollisionProb(0); p != 0 {
		t.Fatalf("collision prob %g at zero load", p)
	}
	prev := 0.0
	for g := 0.05; g < 1.2; g += 0.05 {
		p := m.CollisionProb(g)
		if p <= prev && p < m.MaxCollision {
			t.Fatalf("collision prob not increasing at G=%g (%g after %g)", g, p, prev)
		}
		prev = p
	}
	if p := m.CollisionProb(1e9); p != m.MaxCollision {
		t.Fatalf("saturated collision prob %g, want cap %g", p, m.MaxCollision)
	}
	// The analytic point: β=2, G=0.5 → 1−e^(−1).
	if p, want := m.CollisionProb(0.5), 1-math.Exp(-1); math.Abs(p-want) > 1e-12 {
		t.Fatalf("CollisionProb(0.5) = %g, want %g", p, want)
	}
}

// TestModelValidate covers parameter rejection.
func TestModelValidate(t *testing.T) {
	for _, m := range []Model{
		{Beta: 0, MaxCollision: 0.9},
		{Beta: -1, MaxCollision: 0.9},
		{Beta: 2, MaxCollision: 1},
		{Beta: 2, MaxCollision: -0.1},
		{Beta: math.NaN(), MaxCollision: 0.9},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", m)
		}
	}
}

// TestPPMConversions pins the integer airtime scale.
func TestPPMConversions(t *testing.T) {
	if ToPPM(0.25) != 250_000 {
		t.Fatalf("ToPPM(0.25) = %d", ToPPM(0.25))
	}
	if ToPPM(-1) != 0 {
		t.Fatal("negative duty must clamp to 0")
	}
	if Erlangs(500_000) != 0.5 {
		t.Fatalf("Erlangs(500000) = %g", Erlangs(500_000))
	}
}

// TestModelTagStable: the tag is persisted in telemetry metadata and
// compared on resume, so its rendering must never drift.
func TestModelTagStable(t *testing.T) {
	m := Model{Beta: 2.5, MaxCollision: 0.95}
	if got, want := m.Tag(), "csma:beta=2.5,cap=0.95"; got != want {
		t.Errorf("Tag() = %q, want %q", got, want)
	}
}
