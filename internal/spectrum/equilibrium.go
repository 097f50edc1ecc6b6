package spectrum

import (
	"fmt"
	"math"
	"sort"
)

// This file closes the collision→retry→offered-load feedback loop. The
// first-order model (LoadTable + Model) maps *offered* input traffic to a
// collision probability, but collisions trigger retransmissions, which
// inflate the airtime actually on the channel, which inflates collisions
// again. Equilibrium solves that loop per cell with a damped fixed-point
// iteration: collision probability → expected retransmission multiplier
// (geometric in each node's retry budget) → retry-inflated airtime in
// exact integer PPM → new collision probability, repeated until the loads
// move less than a PPM tolerance or an iteration cap is hit.
//
// Determinism contract: Solve is a pure function of its inputs. Cells are
// solved independently, in ascending cell order, and members update in
// ascending member order from a per-round snapshot (Jacobi, not
// Gauss-Seidel), so no schedule or map-iteration order can influence the
// result. Loads live in integer PPM throughout; the only float math is
// the collision curve and the retry multiplier, both fixed functions of
// integer-PPM inputs, so repeated runs are bit-identical.
//
// Convergence: every per-node load starts at its first-order value and
// the update target is monotone in the other members' loads with a
// multiplier ≥ 1, so the iterate sequence is non-decreasing and bounded
// by the per-node airtime cap (a node cannot transmit more than 100%
// duty) — it converges to the least fixed point of the capped map. The
// half-step damping keeps each round's movement at most half the
// remaining residual, and the residual shrinks geometrically once the
// collision curve saturates.

const (
	// DefaultMaxIters caps the damped fixed-point rounds per cell. Most
	// cells converge within a few dozen rounds (the iterate closes half
	// its remaining gap per round once the collision curve saturates),
	// but a small cell whose map slope sits near 1 can creep through the
	// marginal band ~1 PPM at a time — randomized sweeps top out around
	// 150 rounds at TolPPM = 1, so 256 leaves the cap a genuine
	// backstop, not a truncation.
	DefaultMaxIters = 256
	// DefaultTolPPM is the convergence tolerance: iteration stops once no
	// member's retry-inflated load is more than this many PPM from its
	// fixed-point target.
	DefaultTolPPM = 1
)

// NodeLoad is one radiative node's contribution to the feedback loop: its
// first-order offered airtime and the retransmission budget that bounds
// how far collisions can inflate it.
type NodeLoad struct {
	// BasePPM is the node's first-order offered airtime in [0, PPM].
	BasePPM int64
	// Retries is the node's retransmission budget (bannet MaxRetries): a
	// packet is attempted at most Retries+1 times.
	Retries int
}

// Member is one contender in the feedback iteration — a wearer's
// radiative nodes and the cell they share spectrum in. Body-channel
// nodes radiate nothing and are simply absent from Nodes.
type Member struct {
	Cell  int
	Nodes []NodeLoad
}

// RetryMultiplier is the expected transmission attempts per packet when
// every attempt independently collides with probability p and the budget
// allows retries retransmissions: Σ_{k=0..retries} p^k, the truncated
// geometric series (1−p^(retries+1))/(1−p). It is 1 at p = 0 and
// monotone increasing in both arguments.
func RetryMultiplier(p float64, retries int) float64 {
	if p <= 0 || retries <= 0 {
		return 1
	}
	if p >= 1 {
		return float64(retries + 1)
	}
	return (1 - math.Pow(p, float64(retries+1))) / (1 - p)
}

// InflatePPM maps a node's first-order offered airtime to its
// retry-inflated equilibrium airtime under collision probability p,
// rounding half up and capping at 100% duty (PPM). The result is never
// below basePPM — retransmissions only add airtime.
func InflatePPM(basePPM int64, p float64, retries int) int64 {
	if basePPM <= 0 {
		return 0
	}
	inflated := int64(float64(basePPM)*RetryMultiplier(p, retries) + 0.5)
	if inflated > PPM {
		return PPM
	}
	return inflated
}

// Equilibrium is the damped fixed-point solver for the
// collision→retry→offered-load loop. The zero value of every field
// selects a default (Default model, DefaultMaxIters, DefaultTolPPM).
type Equilibrium struct {
	// Model maps a member's foreign equilibrium load to its collision
	// probability. Nil means Default().
	Model *Model
	// MaxIters caps the update rounds per cell (0 = DefaultMaxIters). A
	// cell reporting exactly MaxIters rounds may have been cut off before
	// reaching the tolerance.
	MaxIters int
	// TolPPM is the convergence tolerance in integer PPM (0 =
	// DefaultTolPPM): a cell converges once no member's load is further
	// than this from its fixed-point target.
	TolPPM int64
}

func (e *Equilibrium) model() *Model {
	if e.Model == nil {
		return Default()
	}
	return e.Model
}

// Validate rejects out-of-range solver parameters. Zero values are
// defaults, not errors.
func (e *Equilibrium) Validate() error {
	if e.MaxIters < 0 {
		return fmt.Errorf("spectrum: negative iteration cap %d", e.MaxIters)
	}
	if e.TolPPM < 0 {
		return fmt.Errorf("spectrum: negative tolerance %d PPM", e.TolPPM)
	}
	return e.model().Validate()
}

// Result is a solved equilibrium: per-member retry-inflated loads, the
// per-cell equilibrium totals, and per-cell convergence diagnostics.
type Result struct {
	table *LoadTable // retry-inflated counterpart of the first-order table
	own   []int64
	iters map[int]int
}

// OwnPPM is member i's equilibrium own load: its first-order offered
// airtime inflated by the collision retries its cell settled at.
func (r *Result) OwnPPM(i int) int64 { return r.own[i] }

// ForeignPPM is the equilibrium foreign load member i sees: its cell's
// equilibrium total minus its own equilibrium share.
func (r *Result) ForeignPPM(i int, cell int) int64 {
	return r.table.ForeignPPM(cell, r.OwnPPM(i))
}

// Iters reports how many damped update rounds the cell's fixed point
// took (0 for a cell already at equilibrium, e.g. a lone wearer;
// MaxIters may mean the cap cut iteration short). Unpopulated cells
// report 0.
func (r *Result) Iters(cell int) int { return r.iters[cell] }

// Solve computes the per-cell equilibrium of members over a cells-sized
// spectrum. It is single-threaded and deterministic; the fleet engine
// calls it once after its parallel first-order gathering pass.
func (e *Equilibrium) Solve(cells int, members []Member) (*Result, error) {
	if cells <= 0 {
		return nil, fmt.Errorf("spectrum: non-positive cell count %d", cells)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	model := e.model()
	maxIters := e.MaxIters
	if maxIters == 0 {
		maxIters = DefaultMaxIters
	}
	tol := e.TolPPM
	if tol == 0 {
		tol = DefaultTolPPM
	}

	res := &Result{own: make([]int64, len(members)), iters: make(map[int]int)}
	byCell := make(map[int][]int)
	for i := range members {
		m := &members[i]
		if m.Cell < 0 || m.Cell >= cells {
			return nil, fmt.Errorf("spectrum: member %d cell %d outside [0,%d)", i, m.Cell, cells)
		}
		var base int64
		for _, n := range m.Nodes {
			if n.BasePPM < 0 || n.BasePPM > PPM {
				return nil, fmt.Errorf("spectrum: member %d base load %d outside [0,%d] PPM", i, n.BasePPM, PPM)
			}
			if n.Retries < 0 {
				return nil, fmt.Errorf("spectrum: member %d negative retry budget %d", i, n.Retries)
			}
			base += n.BasePPM
		}
		res.own[i] = base
		// Appending in member order keeps each cell's member list in
		// ascending member index — a fixed, schedule-free order.
		byCell[m.Cell] = append(byCell[m.Cell], i)
	}

	ids := make([]int, 0, len(byCell))
	for c := range byCell {
		ids = append(ids, c)
	}
	sort.Ints(ids)

	var targets []int64
	for _, c := range ids {
		ms := byCell[c]
		if cap(targets) < len(ms) {
			targets = make([]int64, len(ms))
		}
		targets = targets[:len(ms)]
		var total int64
		for _, id := range ms {
			total += res.own[id]
		}
		rounds := 0
		for ; rounds <= maxIters; rounds++ {
			// Jacobi round: every target comes from the same snapshot of
			// the cell's loads, so member order cannot matter.
			var resid int64
			for k, id := range ms {
				foreign := total - res.own[id]
				if foreign < 0 {
					foreign = 0
				}
				p := model.CollisionProb(Erlangs(foreign))
				var t int64
				for _, n := range members[id].Nodes {
					t += InflatePPM(n.BasePPM, p, n.Retries)
				}
				targets[k] = t
				if d := t - res.own[id]; d > resid {
					resid = d
				} else if -d > resid {
					resid = -d
				}
			}
			if resid <= tol || rounds == maxIters {
				break
			}
			// Damped half-step toward the target, rounded away from zero
			// so every unconverged round moves at least 1 PPM.
			for k, id := range ms {
				d := targets[k] - res.own[id]
				var step int64
				if d > 0 {
					step = (d + 1) / 2
				} else {
					step = (d - 1) / 2
				}
				res.own[id] += step
				total += step
			}
		}
		if rounds > 0 {
			res.iters[c] = rounds
		}
	}

	table, err := NewLoadTable(cells)
	if err != nil {
		return nil, err
	}
	for i := range members {
		if res.own[i] != 0 {
			if err := table.Add(members[i].Cell, res.own[i]); err != nil {
				return nil, err
			}
		}
	}
	res.table = table
	return res, nil
}
