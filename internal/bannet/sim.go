package bannet

import (
	"fmt"
	"math/rand"

	"wiban/internal/desim"
	"wiban/internal/energy"
	"wiban/internal/mac"
	"wiban/internal/partition"
	"wiban/internal/units"
)

// packet is one queued transfer unit.
type packet struct {
	created desim.Time
	retries int
}

// packetQueue is a growable ring buffer of packets. The hot loop pushes one
// packet per generation tick and pops one per transmission attempt; the
// ring keeps both O(1) without the slice-shift churn of a naive queue and
// retains its capacity across runs of a reused Sim.
type packetQueue struct {
	buf  []packet
	head int
	n    int
}

func (q *packetQueue) len() int { return q.n }

// push and pop wrap the ring index with a compare rather than a modulo:
// both run once per packet, where a division would be most of their cost.
func (q *packetQueue) push(p packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = p
	q.n++
}

func (q *packetQueue) pop() packet {
	p := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return p
}

func (q *packetQueue) grow() {
	nb := make([]packet, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = nb, 0
}

func (q *packetQueue) reset() { q.head, q.n = 0, 0 }

// nodeState is the runtime state of one node. States live in the Sim's
// arena: init rebinds one to a (possibly different) node configuration
// while keeping every grown buffer — packet ring, latency slices,
// battery state — so a Sim recycled across scenarios stops allocating
// once the arena has warmed to the population's high-water shape.
type nodeState struct {
	cfg    NodeConfig
	effPER float64 // 1−(1−PER)·(1−CollisionPER), drawn per attempt
	// Packet generation: one packet every interval (0 for a node with no
	// output), the next due at nextGen.
	interval desim.Time
	nextGen  desim.Time
	// Per-packet constants: air time, node TX energy and hub RX energy.
	air units.Duration
	txE units.Energy
	rxE units.Energy
	// Per-frame constants, set once the schedule is built: the beacon
	// listen energy, the whole frame's drain (continuous draw plus
	// beacon) and the slot capacity (0 for a node without a slot).
	syncE     units.Energy
	frameE    units.Energy
	slotBits  int64
	queue     packetQueue
	stats     NodeStats
	latencies []desim.Time   // delivery latencies, in ticks
	airTime   units.Duration // cumulative transmit air time
	// Inference window assembly.
	windowBits  int64
	windowStart desim.Time
	infLat      []desim.Time // end-to-end inference latencies, in ticks
	// Battery drain (DrainBattery mode).
	battState *energy.State
	dead      bool
	diedAt    desim.Time
	// Series sampling window: attempts since the last sample, how many
	// failed, and how many of those failures were collision-attributed.
	winAttempts   int64
	winFails      int64
	winCollisions int64
}

// init rebinds the state to a node configuration and resets it. Every
// configuration-derived field is overwritten; only buffer capacity
// survives from the previous occupant.
func (st *nodeState) init(nc NodeConfig, out units.DataRate) {
	st.cfg = nc
	st.effPER = 1 - (1-nc.PER)*(1-nc.CollisionPER)
	st.interval = 0
	if out > 0 {
		st.interval = max(desim.FromSeconds(float64(nc.PacketBits)/float64(out)), desim.Microsecond)
	}
	st.air = nc.Radio.TimeOnAir(nc.PacketBits)
	st.txE = nc.Radio.ActiveTX.Times(st.air)
	st.rxE = nc.Radio.ActiveRX.Times(st.air)
	if nc.DrainBattery {
		if st.battState == nil {
			st.battState = energy.NewState(nc.Battery)
		} else {
			st.battState.Reinit(nc.Battery)
		}
	} else {
		st.battState = nil
	}
	st.reset()
}

// reset returns the node to its pre-run state, keeping allocated buffers.
func (st *nodeState) reset() {
	st.nextGen = st.interval
	st.queue.reset()
	st.stats = NodeStats{Name: st.cfg.Name}
	st.latencies = st.latencies[:0]
	st.airTime = 0
	st.windowBits = 0
	st.windowStart = 0
	st.infLat = st.infLat[:0]
	if st.battState != nil {
		st.battState.Reset()
	}
	st.dead = false
	st.diedAt = 0
	st.winAttempts = 0
	st.winFails = 0
	st.winCollisions = 0
}

// continuousPower is the node's always-on draw: sensing, ISA compute and
// the radio sleep floor.
func (st *nodeState) continuousPower() units.Power {
	return st.cfg.Sensor.AFEPower + st.cfg.Policy.ComputePower() + st.cfg.Radio.Sleep
}

// drain debits the battery in DrainBattery mode and reports whether the
// node is still alive.
func (st *nodeState) drain(e units.Energy, now desim.Time) bool {
	if st.battState == nil || st.dead {
		return !st.dead
	}
	if !st.battState.Draw(e) || st.battState.Depleted() {
		st.dead = true
		st.diedAt = now
	}
	return !st.dead
}

// hubServer is a single-queue deterministic-service inference server.
type hubServer struct {
	platform  *partition.Platform
	busyUntil desim.Time
	busyTotal desim.Time
	energy    units.Energy
}

func (h *hubServer) reset() {
	h.busyUntil = 0
	h.busyTotal = 0
	h.energy = 0
}

// enqueue admits a job created at start and returns its completion time.
func (h *hubServer) enqueue(now, start desim.Time, macs int64) desim.Time {
	service := desim.FromSeconds(float64(macs) / h.platform.MACRate)
	begin := now
	if h.busyUntil > begin {
		begin = h.busyUntil
	}
	done := begin + service
	h.busyUntil = done
	h.busyTotal += service
	h.energy += units.Energy(float64(h.platform.EnergyPerMAC) * float64(macs))
	return done
}

// defaultTDMA and defaultHub are the shared read-only defaults for
// configs that leave TDMA or HubCompute nil, so a recycled Sim does not
// rebuild them per Reset.
var (
	defaultTDMA = mac.DefaultTDMA()
	defaultHub  = partition.HubSoC()
)

// Sim is a reusable simulation kernel arena. NewSim validates the
// configuration, builds the TDMA schedule and allocates runtime state;
// each Run replays the scenario from a clean state, reusing the packet
// rings and latency buffers. Reset rebinds the same arena to a different
// configuration — node states, demand slices and the schedule's slot
// table are all recycled — so a fleet worker that sweeps many scenarios
// on one Sim is allocation-free once the arena has warmed to the
// population's high-water node count.
//
// Every source of work is fixed-period, so a run needs no event queue:
// RunInto walks the superframes and, before each one, runs the packet
// generation and harvest ticks due ahead of it in closed form (see
// RunInto for the order).
//
// A Sim is not safe for concurrent use; run one Sim per goroutine.
// Reports produced by Run borrow the Sim's schedule: they stay valid
// until the next Reset.
type Sim struct {
	seed     int64
	schedule mac.Schedule
	demands  []mac.Demand
	hub      hubServer
	states   []nodeState
	rng      *rand.Rand

	// superframe is the event-time form of the TDMA period.
	superframe desim.Time

	// Run state: the report under construction, the current simulated
	// time and the next harvest instant (every harvester samples once
	// per simulated second).
	rep      *Report
	now      desim.Time
	nextHarv desim.Time

	// Series sampling (Config.SeriesEvery): seriesStep is the cadence
	// quantized up to the superframe, 0 when sampling is off; the cursors
	// are rearmed per run.
	seriesStep desim.Time
	seriesNext desim.Time
	seriesLast desim.Time
}

// NewSim validates the configuration, builds the TDMA schedule and
// allocates runtime state. The returned Sim can be Run any number of
// times; each run is independent and deterministic in cfg.Seed.
func NewSim(cfg Config) (*Sim, error) {
	s := &Sim{rng: desim.NewRand(0)}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the Sim to a new configuration, revalidating it and
// rebuilding the TDMA schedule while recycling every arena buffer. It is
// equivalent to NewSim except that nothing is reallocated once the arena
// has seen an equal-or-larger configuration. On error the Sim must be
// Reset successfully before it is run again.
func (s *Sim) Reset(cfg Config) error {
	if len(cfg.Nodes) == 0 {
		return fmt.Errorf("bannet: no nodes")
	}
	tdma := cfg.TDMA
	if tdma == nil {
		tdma = defaultTDMA
	}

	// Validate every node before touching the arena, in the order NewSim
	// always has (the first offending node wins).
	for _, nc := range cfg.Nodes {
		if nc.Sensor == nil || nc.Policy == nil || nc.Radio == nil || nc.Battery == nil {
			return fmt.Errorf("bannet: node %q incompletely specified", nc.Name)
		}
		if nc.PacketBits <= 0 {
			return fmt.Errorf("bannet: node %q has no packet size", nc.Name)
		}
		if nc.PER < 0 || nc.PER >= 1 {
			return fmt.Errorf("bannet: node %q PER %v outside [0,1)", nc.Name, nc.PER)
		}
		if nc.CollisionPER < 0 || nc.CollisionPER >= 1 {
			return fmt.Errorf("bannet: node %q collision PER %v outside [0,1)", nc.Name, nc.CollisionPER)
		}
		if nc.Inference != nil && (nc.Inference.MACs <= 0 || nc.Inference.InputBits <= 0) {
			return fmt.Errorf("bannet: node %q has a degenerate inference spec", nc.Name)
		}
		out := nc.Policy.OutputRate(nc.Sensor.DataRate())
		if out > nc.Radio.Goodput {
			return fmt.Errorf("bannet: node %q rate %v exceeds radio goodput %v",
				nc.Name, out, nc.Radio.Goodput)
		}
	}

	// Rebind node states and TDMA demands into the reused buffers.
	if n := len(cfg.Nodes); n <= cap(s.states) {
		s.states = s.states[:n]
	} else {
		s.states = append(s.states[:cap(s.states)], make([]nodeState, n-cap(s.states))...)
	}
	s.demands = s.demands[:0]
	for i, nc := range cfg.Nodes {
		out := nc.Policy.OutputRate(nc.Sensor.DataRate())
		s.states[i].init(nc, out)
		// Slot sizing includes retransmission headroom: a link with packet
		// error rate p needs ≈ 1/(1−p) attempts per delivered packet, plus
		// 20% margin against burstiness. Deliberately sized from the link
		// PER alone, not CollisionPER: the TDMA scheduler can provision for
		// its own channel but not for other wearers' interference.
		demand := units.DataRate(float64(out) / (1 - nc.PER) * 1.2)
		s.demands = append(s.demands, mac.Demand{NodeID: nc.ID, Rate: demand, PacketBits: nc.PacketBits})
	}
	if err := tdma.BuildInto(s.demands, &s.schedule); err != nil {
		return err
	}
	s.superframe = desim.FromSeconds(float64(tdma.Superframe))
	if s.superframe <= 0 {
		// The frame loop steps by the superframe, so it must be a whole
		// tick at least.
		return fmt.Errorf("bannet: superframe %v is under the 1 ns time step", tdma.Superframe)
	}
	s.seed = cfg.Seed
	s.seriesStep = 0
	if cfg.SeriesEvery > 0 {
		s.seriesStep = max(desim.FromSeconds(float64(cfg.SeriesEvery)), s.superframe)
	}

	// Per-frame constants, now that the schedule is known: every awake
	// node pays its continuous draw (sensing + ISA + sleep floor) over
	// the frame plus the beacon listen, and drains up to its slot.
	beacon := units.Duration(float64(s.schedule.BeaconTime))
	frame := units.Duration(s.superframe.Seconds())
	for i := range s.states {
		st := &s.states[i]
		st.syncE = st.cfg.Radio.ActiveRX.Times(beacon) + st.cfg.Radio.WakeEnergy
		st.frameE = st.continuousPower().Times(frame) + st.syncE
		st.slotBits = 0
		if slot := s.schedule.SlotFor(st.cfg.ID); slot != nil {
			st.slotBits = slot.CapacityBits
		}
	}

	hubPlatform := cfg.HubCompute
	if hubPlatform == nil {
		hubPlatform = defaultHub
	}
	s.hub = hubServer{platform: hubPlatform}
	return nil
}

// Schedule returns the TDMA schedule built for the configuration. The
// returned pointer aliases the Sim's arena: its contents change on the
// next Reset.
func (s *Sim) Schedule() *mac.Schedule { return &s.schedule }

// harvTick samples node i's harvester over one simulated second.
func (s *Sim) harvTick(i int) {
	st := &s.states[i]
	e := st.cfg.Harvester.Sample(s.rng).Times(units.Second)
	st.stats.Harvested += e
	if st.battState != nil && !st.dead {
		st.battState.Recharge(e)
	}
}

// ticksThrough runs the harvest and packet-generation ticks due at or
// before limit, or, with frame set, those the superframe at limit
// follows (see RunInto). Harvests share the RNG, so they run in time
// order, then node order. A live node counts its generation ticks as it
// pushes them; a dead node's ticks push nothing but still count, in
// closed form. dead changes only inside frameTick, so it is constant
// here.
func (s *Sim) ticksThrough(limit desim.Time, frame bool) {
	var events uint64
	harvLimit := limit
	if frame && desim.Second <= s.superframe {
		harvLimit--
	}
	for ; s.nextHarv <= harvLimit; s.nextHarv += desim.Second {
		for i := range s.states {
			if s.states[i].cfg.Harvester != nil {
				s.harvTick(i)
				events++
			}
		}
	}
	for i := range s.states {
		st := &s.states[i]
		genLimit := limit
		if frame && st.interval < s.superframe {
			genLimit--
		}
		if st.interval == 0 || st.nextGen > genLimit {
			continue
		}
		if st.dead {
			n := (genLimit-st.nextGen)/st.interval + 1
			events += uint64(n)
			st.nextGen += n * st.interval
			continue
		}
		var n int64
		for ; st.nextGen <= genLimit; st.nextGen += st.interval {
			st.queue.push(packet{created: st.nextGen})
			n++
		}
		events += uint64(n)
		st.stats.PacketsGenerated += n
	}
	s.rep.Events += events
}

// frameTick is the superframe body at s.now: at each node's slot, drain
// up to the slot capacity with PER-driven retries.
func (s *Sim) frameTick() {
	now, report := s.now, s.rep
	// Series sampling rides the superframe rather than its own tick: the
	// sample reflects the state left by the previous frame, and the event
	// count the Report fingerprints stays identical with sampling on or
	// off.
	if s.seriesStep > 0 && now >= s.seriesNext {
		s.emitSeries(now)
		s.seriesNext += s.seriesStep
	}
	for i := range s.states {
		st := &s.states[i]
		if st.dead {
			continue
		}
		// Continuous drain plus the beacon cost debits the battery in
		// DrainBattery mode.
		if !st.drain(st.frameE, now) {
			continue
		}
		// Beacon listen: every node wakes and receives the beacon.
		st.stats.SyncEnergy += st.syncE
		budget := st.slotBits
		for st.queue.len() > 0 && budget >= int64(st.cfg.PacketBits) {
			p := st.queue.pop()
			budget -= int64(st.cfg.PacketBits)
			if !st.drain(st.txE, now) {
				break
			}
			st.stats.TxEnergy += st.txE
			st.airTime += st.air
			st.stats.Transmissions++
			st.winAttempts++
			// One uniform draw decides delivery AND attributes the failure
			// cause, keeping the RNG stream identical to the pre-series
			// kernel: u < CollisionPER is a collision (probability cPER),
			// CollisionPER ≤ u < effPER is link loss (probability
			// PER·(1−cPER), exactly the residual), u ≥ effPER delivers.
			u := s.rng.Float64()
			if u >= st.effPER {
				// Delivered.
				st.latencies = append(st.latencies, now-p.created)
				st.stats.PacketsDelivered++
				st.stats.BitsDelivered += int64(st.cfg.PacketBits)
				report.HubRxBits += int64(st.cfg.PacketBits)
				report.HubRxEnergy += st.rxE
				// Assemble inference input windows and dispatch to
				// the hub NPU queue.
				if spec := st.cfg.Inference; spec != nil {
					if st.windowBits == 0 {
						st.windowStart = p.created
					}
					st.windowBits += int64(st.cfg.PacketBits)
					for st.windowBits >= spec.InputBits {
						st.windowBits -= spec.InputBits
						done := s.hub.enqueue(now, st.windowStart, spec.MACs)
						st.infLat = append(st.infLat, done-st.windowStart)
						st.stats.Inferences++
						st.windowStart = now
					}
				}
				continue
			}
			// Failed: selective-repeat ARQ — requeue at the back (or
			// drop past the retry budget) and keep draining the slot.
			st.winFails++
			if u < st.cfg.CollisionPER {
				st.winCollisions++
			}
			p.retries++
			if p.retries > st.cfg.MaxRetries {
				st.stats.PacketsDropped++
				continue
			}
			st.queue.push(p)
		}
	}
}

// Run simulates the network for the given span from a clean state and
// returns a freshly allocated report. Runs are independent: the same Sim
// run twice with the same seed and span produces identical reports. The
// report's Schedule aliases the Sim's arena (valid until the next Reset);
// callers on the zero-allocation path use RunInto instead.
func (s *Sim) Run(span units.Duration) (*Report, error) {
	rep := &Report{}
	if err := s.RunInto(span, rep); err != nil {
		return nil, err
	}
	rep.Schedule = &s.schedule
	return rep, nil
}

// RunInto simulates the network for the given span from a clean state
// into rep, reusing rep's node-stats and series buffers. It is the
// allocation-free form of Run: once the Sim's arena and rep's buffers
// have warmed, a Reset–RunInto cycle performs no heap allocation
// (pinned by the steady-state regression tests). rep.Schedule is left
// nil — the schedule is per-kernel arena state, available via Schedule.
//
// The run walks the superframes T = k·superframe ≤ end. Each node
// generates a packet every interval and each harvester samples once per
// simulated second, all from their first period on. Ticks are ordered
// by time; at equal times the longer period goes first, and equal
// periods go in the order generation, superframe, harvest, node by node.
// So before the frame at T run the ticks due before T, plus a
// generation tick at T when the node's interval ≥ the superframe and a
// harvest at T when 1 s > the superframe; after the last frame run
// every tick left up to and including end. Report.Events counts every
// tick. FuzzKernelSchedule pins this order against an event scheduler.
func (s *Sim) RunInto(span units.Duration, rep *Report) error {
	end, err := s.begin(span, rep)
	if err != nil {
		return err
	}
	for t := s.superframe; t <= end; t += s.superframe {
		s.ticksThrough(t, true)
		s.now = t
		s.frameTick()
		rep.Events++
	}
	s.ticksThrough(end, false)
	s.finish(span, end)
	return nil
}

// begin resets the Sim and rep for a run of the given span and returns
// the span's end in event time.
func (s *Sim) begin(span units.Duration, rep *Report) (desim.Time, error) {
	if span <= 0 {
		return 0, fmt.Errorf("bannet: non-positive span")
	}
	for i := range s.states {
		s.states[i].reset()
	}
	s.hub.reset()
	s.rng.Seed(s.seed)
	*rep = Report{Nodes: rep.Nodes[:0], Series: rep.Series[:0]}
	s.rep = rep
	s.now = 0
	s.nextHarv = desim.Second
	// Arm the series cursors: first sample at the cadence (quantized up
	// to the next superframe boundary by frameTick), last sample rearmed
	// so the tail emission in finish fires at most once.
	s.seriesNext, s.seriesLast = s.seriesStep, 0
	return desim.FromSeconds(float64(span)), nil
}

// finish emits the tail sample and closes the books of a run that
// reached end.
func (s *Sim) finish(span units.Duration, end desim.Time) {
	rep := s.rep
	rep.Duration = span

	// Tail sample: close the final window at the end of the span unless a
	// cadence sample already landed exactly there, so every run yields at
	// least one sample per node and the books balance for short spans.
	if s.seriesStep > 0 && s.seriesLast < end {
		s.emitSeries(end)
	}

	// Close the books: continuous power components over each node's
	// lifespan (the full span, or until battery death).
	for i := range s.states {
		st := &s.states[i]
		stats := &st.stats
		life := span
		if st.dead {
			stats.Died = true
			stats.DiedAt = units.Duration(st.diedAt.Seconds())
			life = stats.DiedAt
		}
		stats.SenseEnergy = st.cfg.Sensor.AFEPower.Times(life)
		stats.ISAEnergy = st.cfg.Policy.ComputePower().Times(life)
		sleepSpan := life - st.airTime
		if sleepSpan < 0 {
			sleepSpan = 0
		}
		stats.SleepEnergy = st.cfg.Radio.Sleep.Times(sleepSpan)

		stats.AvgPower = stats.TotalEnergy().At(life)
		stats.ProjectedLife = st.cfg.Battery.Lifetime(stats.AvgPower)
		if st.dead && stats.DiedAt < stats.ProjectedLife {
			stats.ProjectedLife = stats.DiedAt
		}
		harvestPower := stats.Harvested.At(life)
		stats.Perpetual = stats.ProjectedLife >= energy.PerpetualLife || harvestPower >= stats.AvgPower

		// Latency percentiles, by selection over the tick samples: the
		// picks are the elements a full sort of the multiset would put at
		// n/2 and n*99/100, so they do not depend on the order the
		// samples arrived in. Seconds is monotone, so converting the two
		// picks gives the values converting every sample and then
		// selecting would.
		if len(st.latencies) > 0 {
			p50, p99 := p50p99(st.latencies)
			stats.LatencyP50, stats.LatencyP99 = units.Duration(p50.Seconds()), units.Duration(p99.Seconds())
		}
		if len(st.infLat) > 0 {
			p50, p99 := p50p99(st.infLat)
			stats.InferenceP50, stats.InferenceP99 = units.Duration(p50.Seconds()), units.Duration(p99.Seconds())
		}
		rep.Nodes = append(rep.Nodes, *stats)
	}
	rep.HubComputeEnergy = s.hub.energy
	rep.HubUtilization = units.Clamp(s.hub.busyTotal.Seconds()/float64(span), 0, 1)
	s.rep = nil
}
