package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wiban/internal/bannet"
	"wiban/internal/desim"
	"wiban/internal/radio"
	"wiban/internal/spectrum"
)

// Coupling switches the engine to its two-phase spectrum-coupled mode:
// wearers stop being independent and instead contend for shared RF
// spectrum inside spatial cells (see wiban/internal/spectrum).
//
// Phase 1 computes every cell's offered RF load from the scenarios alone:
// each wearer's cell is a pure function of its scenario seed
// (spectrum.CellOf) and its offered load an integer-PPM function of its
// generated config, so the per-cell sums are an exact, order-independent
// reduction — any worker count produces bit-identical loads. Phase 2 then
// runs the ordinary per-wearer kernels with each RF node's CollisionPER
// set from its cell's foreign load; EQS/MQS body-channel nodes are left
// untouched, reproducing the paper's density contrast. Because both
// phases are pure functions of (fleetSeed, population), the engine's
// determinism, parallelism-invariance and resume contracts carry over
// unchanged: a resumed sweep or a shard recomputes phase 1 over the full
// population [0, Wearers) regardless of Start/End and lands on the same
// loads.
type Coupling struct {
	// Cells is the spatial cell count wearers hash into (> 0). More
	// wearers per cell means more co-channel contention; Wearers/Cells is
	// the sweep's density axis.
	Cells int
	// Model maps a cell's foreign offered load to a collision
	// probability. Nil means spectrum.Default().
	Model *spectrum.Model
	// Feedback closes the collision→retry→offered-load loop: phase 1
	// additionally solves, per cell, the damped fixed point of
	// spectrum.Equilibrium — collisions inflate retransmissions, which
	// inflate airtime, which inflate collisions — and phase 2 stamps each
	// RF node's collision probability from its cell's *equilibrium*
	// foreign load instead of the first-order one. The solve is a pure,
	// single-threaded function of the gathered first-order loads, so
	// every determinism contract (worker invariance, kill/resume) carries
	// over; the cost is O(population) phase-1 memory for the per-wearer
	// node loads the iteration needs. Off (false), the engine is
	// bit-identical to the first-order two-phase engine.
	Feedback bool
	// MaxIters caps the fixed-point rounds per cell (0 =
	// spectrum.DefaultMaxIters). Only meaningful with Feedback.
	MaxIters int
	// TolPPM is the fixed-point convergence tolerance in integer PPM
	// (0 = spectrum.DefaultTolPPM). Only meaningful with Feedback.
	TolPPM int64
}

// model returns the effective collision model.
func (c *Coupling) model() *spectrum.Model {
	if c.Model == nil {
		return spectrum.Default()
	}
	return c.Model
}

// validate rejects degenerate couplings.
func (c *Coupling) validate() error {
	if c.Cells <= 0 {
		return fmt.Errorf("fleet: coupling needs a positive cell count, got %d", c.Cells)
	}
	if err := c.model().Validate(); err != nil {
		return err
	}
	eq := c.equilibrium()
	return eq.Validate()
}

// equilibrium is the effective fixed-point solver of a feedback coupling.
// It is returned by value — the solver is a parameter bundle, built once
// per sweep, never per wearer.
func (c *Coupling) equilibrium() spectrum.Equilibrium {
	return spectrum.Equilibrium{Model: c.Model, MaxIters: c.MaxIters, TolPPM: c.TolPPM}
}

// effIters and effTol render the solver knobs with defaults applied.
func (c *Coupling) effIters() int {
	if c.MaxIters == 0 {
		return spectrum.DefaultMaxIters
	}
	return c.MaxIters
}

func (c *Coupling) effTol() int64 {
	if c.TolPPM == 0 {
		return spectrum.DefaultTolPPM
	}
	return c.TolPPM
}

// Tag renders the coupling parameters as a stable string for telemetry
// metadata, so a resumed sweep refuses flags describing a different
// spectrum topology. A first-order coupling's tag is byte-identical to
// the pre-feedback one, so existing v1 stores resume unchanged.
func (c *Coupling) Tag() string {
	tag := fmt.Sprintf("cells=%d;%s", c.Cells, c.model().Tag())
	if c.Feedback {
		tag += fmt.Sprintf(";feedback:iters=%d,tol=%d", c.effIters(), c.effTol())
	}
	return tag
}

// cellOf is the wearer→cell assignment: a pure function of the wearer's
// scenario-stream seed, so it is identical on every rerun, resume and
// worker schedule.
func (f *Fleet) cellOf(w int) int {
	return spectrum.CellOf(desim.DeriveSeed(f.Seed, 2*uint64(w)), f.Coupling.Cells)
}

// nodeOfferedPPM is one node's first-order offered airtime —
// application rate over link goodput, in integer PPM, capped at 100%
// duty — or ok = false for nodes that radiate nothing into the shared
// band: body-channel (EQS/MQS) nodes' immunity is the model, not a
// special case downstream. Retransmission expansion is deliberately
// excluded here: offered load is first-order input traffic, and the
// feedback engine inflates it with the retry budget at equilibrium
// (spectrum.Equilibrium).
func nodeOfferedPPM(n *bannet.NodeConfig) (ppm int64, ok bool) {
	return offeredPPMWith(n, n.Radio)
}

// offeredPPMWith is nodeOfferedPPM with the effective radio made
// explicit, so the Generator's load pass can apply the BLE-fallback rule
// without materializing a perturbed NodeConfig.
func offeredPPMWith(n *bannet.NodeConfig, r *radio.Transceiver) (ppm int64, ok bool) {
	if r == nil || r.Tech != radio.TechRF || n.Sensor == nil || n.Policy == nil {
		return 0, false
	}
	if r.Goodput <= 0 {
		return 0, false
	}
	duty := float64(n.Policy.OutputRate(n.Sensor.DataRate())) / float64(r.Goodput)
	if duty > 1 {
		duty = 1
	}
	return spectrum.ToPPM(duty), true
}

// appendNodeLoads appends each radiative node's first-order offered
// load and retransmission budget to dst — the per-member input of the
// feedback fixed point.
func appendNodeLoads(dst []spectrum.NodeLoad, cfg *bannet.Config) []spectrum.NodeLoad {
	for i := range cfg.Nodes {
		if ppm, ok := nodeOfferedPPM(&cfg.Nodes[i]); ok {
			dst = append(dst, spectrum.NodeLoad{BasePPM: ppm, Retries: cfg.Nodes[i].MaxRetries})
		}
	}
	return dst
}

// offeredLoadPPM is a wearer's total first-order offered RF airtime in
// integer PPM. It sums in place — no allocation on the per-wearer hot
// paths of both engine phases.
func offeredLoadPPM(cfg *bannet.Config) int64 {
	var total int64
	for i := range cfg.Nodes {
		if ppm, ok := nodeOfferedPPM(&cfg.Nodes[i]); ok {
			total += ppm
		}
	}
	return total
}

// phase1 carries the offered-load reduction's results into phase 2: the
// first-order per-cell table always, the collision model (resolved once
// per sweep, so the default model is not re-allocated per wearer), plus
// the per-wearer equilibrium solution when the coupling closes the
// feedback loop.
type phase1 struct {
	loads *spectrum.LoadTable
	model *spectrum.Model
	eq    *spectrum.Result // nil unless Coupling.Feedback
}

// wearerLoads is the phase-1 per-wearer load pass: it reseeds the
// worker's scratch RNG to the wearer's scenario stream and appends the
// wearer's radiative node loads to dst — via the allocation-free
// LoadScenario fast path when the fleet provides one, else by generating
// the full scenario and reducing it.
func (f *Fleet) wearerLoads(w int, sc *workerScratch, dst []spectrum.NodeLoad) ([]spectrum.NodeLoad, error) {
	sc.rng.Seed(desim.DeriveSeed(f.Seed, 2*uint64(w)))
	if f.Loads != nil {
		return f.Loads(w, sc.rng, dst)
	}
	cfg, err := f.Scenario(w, sc.rng)
	if err != nil {
		return dst, err
	}
	return appendNodeLoads(dst, &cfg), nil
}

// offeredLoads is phase 1: the deterministic per-cell load reduction
// over the full population [0, Wearers) — including wearers outside
// [Start, End), so a resumed sweep or a shard sees the loads one
// uninterrupted process does — followed in feedback mode by the one
// single-threaded solve. Both halves are worker-count invariant (see
// gatherLoads).
func (f *Fleet) offeredLoads(workers int) (*phase1, error) {
	total, members, err := f.gatherLoads(workers)
	if err != nil {
		return nil, err
	}
	p1 := &phase1{loads: total, model: f.Coupling.model()}
	if members != nil {
		if p1.eq, err = f.Coupling.solve(members, f.Stats); err != nil {
			return nil, err
		}
	}
	return p1, nil
}

// solve is phase 1's one equilibrium solve over the full population's
// members in wearer order; it adds its time, rounds and cells to stats.
func (c *Coupling) solve(members []spectrum.Member, stats *Stats) (*spectrum.Result, error) {
	start := time.Now()
	eq := c.equilibrium()
	res, err := eq.Solve(c.Cells, members)
	if err != nil {
		return nil, fmt.Errorf("fleet: equilibrium phase: %w", err)
	}
	if stats != nil {
		stats.Phase1SolveNS.Add(time.Since(start).Nanoseconds())
		var iters int64
		for cell := 0; cell < c.Cells; cell++ {
			iters += int64(res.Iters(cell))
		}
		stats.EquilibriumIters.Add(iters)
		stats.EquilibriumCells.Add(int64(c.Cells))
	}
	return res, nil
}

// gatherLoads is the parallel offered-load gather over the full
// population [0, Wearers): the per-cell table plus, in feedback mode,
// every wearer's member in wearer order. Workers accumulate into
// private tables over contiguous chunks and the integer merges commute,
// so the result is bit-identical for any worker count; a failing
// scenario surfaces as the lowest failing wearer index, matching the
// phase-2 error contract. The pass is allocation-free per wearer: each
// worker owns a scratch (pooled RNG plus a reusable load buffer) and,
// in feedback mode, appends node loads into a per-worker arena whose
// sub-slices the members keep — a grown arena strands its old backing
// array, but the values there are final.
func (f *Fleet) gatherLoads(workers int) (*spectrum.LoadTable, []spectrum.Member, error) {
	gatherStart := time.Now()
	cells := f.Coupling.Cells
	total, err := spectrum.NewLoadTable(cells)
	if err != nil {
		return nil, nil, err
	}
	var members []spectrum.Member
	if f.Coupling.Feedback {
		members = make([]spectrum.Member, f.Wearers)
	}
	const chunk = 256
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		failIdx = -1
		failErr error
	)
	if workers > f.Wearers {
		workers = f.Wearers
	}
	if workers < 1 {
		workers = 1
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := newWorkerScratch()
			var arena []spectrum.NodeLoad // feedback mode: member loads, append-only
			local, _ := spectrum.NewLoadTable(cells)
			localFail, localErr := -1, error(nil)
			fail := func(w int, err error) {
				if localFail == -1 || w < localFail {
					localFail, localErr = w, err
				}
			}
			for {
				c0 := int(next.Add(chunk) - chunk)
				if c0 >= f.Wearers {
					break
				}
				c1 := c0 + chunk
				if c1 > f.Wearers {
					c1 = f.Wearers
				}
				for w := c0; w < c1; w++ {
					cell := f.cellOf(w)
					var own int64
					if members != nil {
						start := len(arena)
						var err error
						if arena, err = f.wearerLoads(w, sc, arena); err != nil {
							fail(w, err)
							arena = arena[:start]
							continue
						}
						m := spectrum.Member{Cell: cell, Nodes: arena[start:len(arena):len(arena)]}
						for _, nl := range m.Nodes {
							own += nl.BasePPM
						}
						members[w] = m
					} else {
						var err error
						if sc.loads, err = f.wearerLoads(w, sc, sc.loads[:0]); err != nil {
							fail(w, err)
							continue
						}
						for _, nl := range sc.loads {
							own += nl.BasePPM
						}
					}
					if err := local.Add(cell, own); err != nil {
						fail(w, err)
					}
				}
			}
			mu.Lock()
			if err := total.Merge(local); err != nil && localFail == -1 {
				localFail, localErr = 0, err // table-shape bug: lowest possible index
			}
			if localFail != -1 && (failIdx == -1 || localFail < failIdx) {
				failIdx, failErr = localFail, localErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if failIdx != -1 {
		return nil, nil, fmt.Errorf("fleet: offered-load phase: wearer %d: %w", failIdx, failErr)
	}
	if f.Stats != nil {
		f.Stats.Phase1GatherNS.Add(time.Since(gatherStart).Nanoseconds())
	}
	return total, members, nil
}

// applyInterference stamps the cell's collision probability onto the
// config's RF nodes (copying the node slice into the worker's scratch
// buffer first: the scenario may hand out shared backing arrays, and the
// kernel copies node configs out before the buffer's next reuse) and
// returns the wearer's spectrum placement for telemetry: its cell,
// first-order foreign load, and — in feedback mode — the equilibrium
// foreign load the collision probability actually came from plus the
// cell's fixed-point round count.
func (f *Fleet) applyInterference(w int, cfg *bannet.Config, p1 *phase1, sc *workerScratch) (cell int, foreignPPM, eqForeignPPM int64, iters int) {
	cell = f.cellOf(w)
	foreignPPM = p1.loads.ForeignPPM(cell, offeredLoadPPM(cfg))
	effPPM := foreignPPM
	if p1.eq != nil {
		eqForeignPPM = p1.eq.ForeignPPM(w, cell)
		iters = p1.eq.Iters(cell)
		effPPM = eqForeignPPM
	}
	p := p1.model.CollisionProb(spectrum.Erlangs(effPPM))
	if p > 0 {
		sc.nodes = append(sc.nodes[:0], cfg.Nodes...)
		cfg.Nodes = sc.nodes
		for i := range cfg.Nodes {
			if r := cfg.Nodes[i].Radio; r != nil && r.Tech == radio.TechRF {
				cfg.Nodes[i].CollisionPER = p
			}
		}
	}
	return cell, foreignPPM, eqForeignPPM, iters
}

// effectiveWorkers mirrors the phase-2 worker sizing for phase 1.
func (f *Fleet) effectiveWorkers() int {
	if f.Workers > 0 {
		return f.Workers
	}
	return runtime.NumCPU()
}
