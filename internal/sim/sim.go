// Package sim is the execution engine that ties the simulated machine
// together: software threads — modelled as memory-reference generators —
// run on hardware contexts in scheduling quanta, each data access flows
// through the coherent cache hierarchy, and every micro-architectural
// outcome is fed to the per-CPU performance monitoring units.
//
// Time is advanced in quanta. To preserve the coherence interleavings that
// drive remote cache accesses, each quantum is split into several
// interleave slices and the hardware contexts take turns running their
// current thread one slice at a time. That models cross-thread
// invalidation traffic at a fraction of per-cycle simulation cost.
package sim

import (
	"context"
	"fmt"
	"math"

	"threadcluster/internal/cache"
	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/metrics"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/topology"
)

// MemRef is one unit of simulated work: some instructions of computation
// followed by a data access, with optional extra stall cycles and an
// application-level operation completion marker.
type MemRef struct {
	// Addr is the data address accessed.
	Addr memory.Addr
	// Write marks the access as a store.
	Write bool
	// Insts is the number of instructions retired by the computation
	// leading up to (and including) the access.
	Insts uint64
	// BranchStall is extra stall cycles charged to branch misprediction.
	BranchStall uint64
	// OtherStall is extra stall cycles charged to remaining causes.
	OtherStall uint64
	// Ops, when nonzero, reports that the thread completed that many
	// application-level operations (messages, transactions, ...) — the
	// workload's own performance metric (Figure 7).
	Ops uint64
}

// Generator produces a thread's memory-reference stream. Implementations
// own their randomness so a thread's stream is identical across placement
// policies.
type Generator interface {
	Next() MemRef
}

// RunGenerator is an optional Generator capability: NextRun hands over the
// next run of the stream in place — at least one reference, in stream
// order — instead of one MemRef per call. The run stays valid until the
// next NextRun call, and the generator's cursor is already past it, so a
// caller consumes every reference of a run before asking for the next.
// Next and NextRun draw from one stream: consuming it through either, or
// through runs cut anywhere, yields the same references.
//
// A MemRef has six fields, more than Go returns in registers, so a Next
// call returns it through memory, and the caller's copy out of that memory
// straddles the callee's narrower stores. A run is a slice header, and
// runSlice reads each reference in place.
type RunGenerator interface {
	Generator
	NextRun() []MemRef
}

// nextRuns is the run source of a generator that only implements Next:
// one reference per run, in a slot it owns.
type nextRuns struct {
	Generator
	run [1]MemRef
}

func (a *nextRuns) NextRun() []MemRef {
	a.run[0] = a.Next()
	return a.run[:]
}

// Thread is one software thread.
type Thread struct {
	// ID is the scheduler handle.
	ID sched.ThreadID
	// Gen produces the thread's access stream.
	Gen Generator
	// Partition is the ground-truth application partition (scoreboard,
	// room, warehouse, database instance) used by the hand-optimized
	// policy and by cluster-quality validation. The automatic engine never
	// reads it.
	Partition int

	// Accumulated per-thread metrics.
	Cycles uint64
	Insts  uint64
	Ops    uint64
	// RemoteMisses counts this thread's accesses satisfied remotely
	// (ground truth, for validation plots).
	RemoteMisses uint64

	// confined caches whether Gen implements ConfinedGenerator, and runs is
	// Gen's run source: Gen itself when it is a RunGenerator, else a
	// one-slot adapter over Next. Both are computed once at AddThread
	// (swapping Gen afterwards is not supported).
	confined bool
	runs     RunGenerator
	// pending is the unconsumed tail of the last run: a slice ends by
	// budget, not at a run boundary, and the next slice starts here.
	pending []MemRef
}

// Config assembles a machine.
type Config struct {
	Topo   topology.Topology
	Lat    topology.Latencies
	Caches cache.HierarchyConfig
	// QuantumCycles is the scheduling quantum (default 100k cycles).
	QuantumCycles uint64
	// InterleaveSlices divides each quantum for cross-CPU interleaving
	// (default 4).
	InterleaveSlices int
	// SMTContentionPct is the completion-cycle penalty, in percent, a
	// hardware context pays when its SMT sibling is also running a thread
	// in the same round: the two contexts share the core's fetch/issue
	// bandwidth. 0 disables; 25 means co-running threads retire
	// instructions 25% slower, charged as EvStallSMT cycles.
	SMTContentionPct int
	// Seed drives all machine-level randomness.
	Seed int64
	// Policy selects the placement strategy.
	Policy sched.Policy
	// Engine picks the round driver: EngineParallel (zero value; eligible
	// rounds run chip-parallel) or EngineSeq. Both produce byte-identical
	// results — see the Engine type.
	Engine Engine
}

// DefaultConfig returns the paper's platform with sensible simulation
// parameters: OpenPower 720 topology, Figure 1 latencies, Table 1 caches.
func DefaultConfig() Config {
	return Config{
		Topo:             topology.OpenPower720(),
		Lat:              topology.DefaultLatencies(),
		Caches:           cache.Power5Config(),
		QuantumCycles:    100_000,
		InterleaveSlices: 4,
		Seed:             1,
		Policy:           sched.PolicyDefault,
	}
}

// TickFunc observes the machine after each completed scheduling round.
type TickFunc func(m *Machine)

// Machine is the whole simulated system.
type Machine struct {
	cfg     Config
	topo    topology.Topology
	hier    *cache.Hierarchy
	pmus    []*pmu.PMU
	muxes   []*pmu.Multiplexer // optional, per CPU; advanced with time
	sch     *sched.Scheduler
	threads map[sched.ThreadID]*Thread
	byID    []*Thread        // dense thread lookup for the dispatch path
	order   []sched.ThreadID // insertion order, for deterministic iteration

	clock    uint64 // machine time in cycles
	rounds   uint64 // completed scheduling rounds
	ticks    []TickFunc
	running  []sched.ThreadID // per CPU; -1 = idle
	overhead uint64           // cycles burned in PMU overflow handlers

	dispatchSlots uint64 // CPU-quanta elapsed
	dispatchBusy  uint64 // CPU-quanta with a thread dispatched

	metrics   *metrics.Registry
	depthHist *metrics.Histogram // runqueue depth observed each round

	// observer, when set, sees every memory reference before it executes
	// and returns extra cycles to charge (e.g. a simulated page-protection
	// fault). Used by software-based sharing detectors.
	observer AccessObserver

	// parallelRounds counts rounds the chip-parallel driver executed.
	// Deliberately not a metric: metrics snapshots must be identical
	// across engines, and this is the one number that is not. Tests use
	// it to prove the parallel driver actually ran.
	parallelRounds uint64

	// capture, when non-nil, records every AccessResult per CPU (set by
	// the engine differential tests; a chip worker appends only to its
	// own CPUs' logs, so capture is race-free under the parallel driver).
	capture [][]cache.AccessResult

	// providers holds the named opaque snapshot sections registered by
	// attached components (see RegisterStateProvider).
	providers map[string]StateProvider
}

// AccessObserver intercepts memory references. It returns extra stall
// cycles to charge to the accessing CPU — the cost of whatever software
// mechanism (page fault, instrumentation) the observer models.
type AccessObserver func(cpu topology.CPUID, t *Thread, ref MemRef) (extraCycles uint64)

// NewMachine builds the machine.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.QuantumCycles == 0 {
		cfg.QuantumCycles = 100_000
	}
	if cfg.InterleaveSlices <= 0 {
		cfg.InterleaveSlices = 4
	}
	hier, err := cache.NewHierarchy(cfg.Topo, cfg.Lat, cfg.Caches)
	if err != nil {
		return nil, err
	}
	sch, err := sched.New(cfg.Topo, cfg.Policy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:     cfg,
		topo:    cfg.Topo,
		hier:    hier,
		sch:     sch,
		threads: make(map[sched.ThreadID]*Thread),
		running: make([]sched.ThreadID, cfg.Topo.NumCPUs()),
	}
	for i := 0; i < cfg.Topo.NumCPUs(); i++ {
		m.pmus = append(m.pmus, pmu.New())
		m.muxes = append(m.muxes, nil)
		m.running[i] = -1
	}
	m.registerMetrics()
	return m, nil
}

// Close ends the machine's life and hands its cache slabs back for the
// next NewMachine of the same geometry to reuse, which makes building a
// machine cost O(sets the previous run touched) instead of O(cache
// capacity). Read everything you need first: running the machine,
// snapshotting it, restoring into it or reading its hierarchy or metrics
// after Close panics with "sim: machine used after Close". A second Close
// is a no-op. A machine that is never closed is simply garbage collected.
func (m *Machine) Close() {
	if m.hier == nil {
		return
	}
	m.hier.Release()
	m.hier = nil
}

// errUseAfterClose is the panic value of every use of a closed machine.
const errUseAfterClose = "sim: machine used after Close"

// live panics when the machine has been closed (Close drops the
// hierarchy): its slabs may already belong to another machine, so no read
// of them can be meaningful.
func (m *Machine) live() {
	if m.hier == nil {
		panic(errUseAfterClose)
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Topology returns the machine shape.
func (m *Machine) Topology() topology.Topology { return m.topo }

// Hierarchy exposes the cache system (stats, tests).
func (m *Machine) Hierarchy() *cache.Hierarchy {
	m.live()
	return m.hier
}

// Scheduler exposes the scheduling layer.
func (m *Machine) Scheduler() *sched.Scheduler { return m.sch }

// PMU returns the performance monitoring unit of a hardware context.
func (m *Machine) PMU(cpu topology.CPUID) *pmu.PMU { return m.pmus[cpu] }

// AttachMux wires a multiplexer to a CPU's PMU; the machine advances it as
// simulated time passes on that CPU.
func (m *Machine) AttachMux(cpu topology.CPUID, mux *pmu.Multiplexer) {
	m.muxes[cpu] = mux
	m.pmus[cpu].AttachMultiplexer(mux)
	m.registerMuxMetrics(cpu, mux)
}

// Clock returns machine time in cycles.
func (m *Machine) Clock() uint64 { return m.clock }

// OverheadCycles returns cycles burned in PMU overflow handlers so far.
func (m *Machine) OverheadCycles() uint64 { return m.overhead }

// AddThread registers and places a thread.
func (m *Machine) AddThread(t *Thread) error {
	if t == nil || t.Gen == nil {
		return fmt.Errorf("sim: thread must have a generator: %w", errs.ErrBadConfig)
	}
	if t.ID < 0 {
		return fmt.Errorf("sim: thread id %d must be non-negative: %w", t.ID, errs.ErrBadConfig)
	}
	if _, ok := m.threads[t.ID]; ok {
		return fmt.Errorf("sim: thread %d: %w", t.ID, errs.ErrDuplicateThread)
	}
	if err := m.sch.AddThread(t.ID); err != nil {
		return err
	}
	_, t.confined = t.Gen.(ConfinedGenerator)
	if runs, ok := t.Gen.(RunGenerator); ok {
		t.runs = runs
	} else {
		t.runs = &nextRuns{Generator: t.Gen}
	}
	m.threads[t.ID] = t
	for int(t.ID) >= len(m.byID) {
		m.byID = append(m.byID, nil)
	}
	m.byID[t.ID] = t
	m.order = append(m.order, t.ID)
	return nil
}

// Thread returns a registered thread.
func (m *Machine) Thread(id sched.ThreadID) *Thread {
	if id < 0 || int(id) >= len(m.byID) {
		return nil
	}
	return m.byID[id]
}

// RemoveThread withdraws a thread from the machine (a connection closing,
// a worker exiting). It must be called between scheduling rounds — i.e.
// from an OnTick observer or outside RunRoundsCtx — never from inside a
// generator or PMU handler.
func (m *Machine) RemoveThread(id sched.ThreadID) error {
	if _, ok := m.threads[id]; !ok {
		return fmt.Errorf("sim: thread %d: %w", id, errs.ErrUnknownThread)
	}
	for _, running := range m.running {
		if running == id {
			return fmt.Errorf("sim: thread %d is mid-quantum; remove threads between rounds: %w",
				id, errs.ErrThreadRunning)
		}
	}
	m.sch.RemoveThread(id)
	delete(m.threads, id)
	m.byID[id] = nil
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// Threads returns all threads in insertion order.
func (m *Machine) Threads() []*Thread {
	out := make([]*Thread, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.threads[id])
	}
	return out
}

// RunningThread returns the thread currently executing on the CPU, or nil.
// PMU overflow handlers use this to attribute samples to the interrupted
// thread, exactly as a kernel interrupt handler attributes samples to
// `current`.
func (m *Machine) RunningThread(cpu topology.CPUID) *Thread {
	id := m.running[cpu]
	if id < 0 {
		return nil
	}
	return m.byID[id]
}

// OnTick registers an observer called after every scheduling round.
func (m *Machine) OnTick(f TickFunc) { m.ticks = append(m.ticks, f) }

// SetAccessObserver installs (or clears, with nil) the per-reference
// observer. Only one observer is supported; software sharing detectors
// use it to model page-protection faults.
func (m *Machine) SetAccessObserver(o AccessObserver) { m.observer = o }

// Run advances the machine by (at least) the given number of cycles, in
// whole scheduling rounds, checking ctx at every round boundary. It
// returns ctx's error if the context is cancelled before the cycles
// elapse, leaving the machine in a consistent between-rounds state. A
// budget that would run the clock past its range runs until cancelled.
func (m *Machine) Run(ctx context.Context, cycles uint64) error {
	end := m.clock + cycles
	if end < m.clock {
		end = math.MaxUint64
	}
	for m.clock < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.runRound()
	}
	return nil
}

// RunRoundsCtx advances the machine by n scheduling rounds, checking ctx
// at every round boundary. It returns ctx's error on cancellation,
// leaving the machine in a consistent between-rounds state.
func (m *Machine) RunRoundsCtx(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.runRound()
	}
	return nil
}

// runRound executes one scheduling quantum on every hardware context,
// interleaved in slices, then performs periodic balancing and fires tick
// observers.
func (m *Machine) runRound() {
	m.live()
	ncpu := m.topo.NumCPUs()
	// Quantum dispatch: each CPU picks its thread for the round.
	for c := 0; c < ncpu; c++ {
		m.dispatchSlots++
		if id, ok := m.sch.PickNext(topology.CPUID(c)); ok {
			m.running[c] = id
			m.dispatchBusy++
		} else {
			m.running[c] = -1
		}
	}
	sliceBudget := m.cfg.QuantumCycles / uint64(m.cfg.InterleaveSlices)
	if sliceBudget == 0 {
		sliceBudget = 1
	}
	switch {
	case !m.deferredRound():
		// Serial immediate-coherence loop: every coherence effect is
		// visible to the very next access, machine-wide.
		for s := 0; s < m.cfg.InterleaveSlices; s++ {
			for c := 0; c < ncpu; c++ {
				if m.running[c] < 0 {
					continue
				}
				m.runSlice(topology.CPUID(c), m.byID[m.running[c]], sliceBudget, m.smtBusy(topology.CPUID(c)), nil)
			}
		}
	default:
		m.runSlices(sliceBudget, m.cfg.Engine == EngineParallel)
	}
	// Quantum end: requeue and balance.
	for c := 0; c < ncpu; c++ {
		if m.running[c] >= 0 {
			m.sch.Requeue(m.running[c])
			m.running[c] = -1
		}
	}
	m.sch.ProactiveBalance()
	m.clock += m.cfg.QuantumCycles
	m.rounds++
	m.depthHist.Observe(uint64(m.sch.TotalQueued()))
	for c := 0; c < ncpu; c++ {
		if m.muxes[c] != nil {
			m.muxes[c].Advance(m.cfg.QuantumCycles)
		}
	}
	for _, f := range m.ticks {
		f(m)
	}
}

// smtBusy reports whether any SMT sibling of the CPU is running a thread
// this round.
func (m *Machine) smtBusy(cpu topology.CPUID) bool {
	if m.cfg.SMTContentionPct <= 0 {
		return false
	}
	for _, sib := range m.topo.CPUsOfCore(m.topo.CoreOf(cpu)) {
		if sib != cpu && m.running[sib] >= 0 {
			return true
		}
	}
	return false
}

// runSlice runs one thread on one CPU for (at least) budget cycles.
//
// lane, when non-nil, routes accesses through the CPU's chip lane under
// deferred coherence (the caller owns the slice barrier); nil uses the
// hierarchy's immediate-coherence Access.
//
// This is the simulator's hot loop and must not allocate. Every reference
// comes the same way: read in place from the thread's current run, which
// the thread's run source refills when it is used up (see RunGenerator);
// the unconsumed tail waits on the thread for its next slice. Every
// reference takes the same observation path: each event goes to PMU.Add,
// which observes it at once when an armed overflow handler counts it and
// otherwise leaves it in the PMU's pending batch, flushed before anything
// reads or reprograms the PMU. So a handler fires at the exact reference
// that overflows its counter, and an unarmed event costs one add. The
// lane/hierarchy fast paths are allocation-free, and the loop introduces
// no closures or interface conversions of its own.
func (m *Machine) runSlice(cpu topology.CPUID, t *Thread, budget uint64, smtBusy bool, lane *cache.Lane) {
	p := m.pmus[cpu]
	run := t.pending
	var used uint64
	for used < budget {
		if len(run) == 0 {
			run = t.runs.NextRun()
		}
		ref := &run[0]
		run = run[1:]
		var observerCycles uint64
		if m.observer != nil {
			observerCycles = m.observer(cpu, t, *ref)
		}
		var res cache.AccessResult
		if lane != nil {
			res = lane.Access(cpu, ref.Addr, ref.Write)
		} else {
			res = m.hier.Access(cpu, ref.Addr, ref.Write)
		}

		completion := ref.Insts + 1 // the access instruction retires too
		// An L1 hit is overlapped by the pipeline and causes no stall;
		// everything slower stalls for its latency minus the overlapped
		// first cycle.
		var stall uint64
		stallEv, hasStall := pmu.StallEvent(res.Source)
		if hasStall && res.Cycles > 1 {
			stall = res.Cycles - 1
		}
		var smtStall uint64
		if smtBusy {
			// The sibling context competes for issue bandwidth: retiring
			// the same instructions takes extra cycles.
			smtStall = completion * uint64(m.cfg.SMTContentionPct) / 100
		}
		total := completion + stall + smtStall + ref.BranchStall + ref.OtherStall
		if observerCycles > 0 {
			total += observerCycles
			m.overhead += observerCycles
		}

		// One Add per event occurrence, in a fixed order: an armed event
		// is observed right here, so the split matters (the observer's
		// cycles are a second EvStallOther occurrence, not part of the
		// first).
		p.Add(pmu.EvCycles, total)
		p.Add(pmu.EvInstCompleted, completion)
		p.Add(pmu.EvCompletionCycles, completion)
		if hasStall {
			p.Add(stallEv, stall)
		}
		p.Add(pmu.EvStallSMT, smtStall)
		p.Add(pmu.EvStallBranch, ref.BranchStall)
		p.Add(pmu.EvStallOther, ref.OtherStall)
		if observerCycles > 0 {
			p.Add(pmu.EvStallOther, observerCycles)
		}
		if res.L1Miss {
			// RecordMiss updates the sampling register and may fire the
			// remote-access overflow handler synchronously.
			p.RecordMiss(res.Line, res.Source)
		}
		if res.Source.Remote() {
			t.RemoteMisses++
		}

		// Charge any overflow-handler time to this CPU and account it as
		// cycles: the detection phase's runtime overhead (Figure 8).
		if ic := p.DrainInterruptCycles(); ic > 0 {
			p.Add(pmu.EvCycles, ic)
			p.Add(pmu.EvStallOther, ic)
			m.overhead += ic
			total += ic
		}

		if m.capture != nil {
			m.capture[cpu] = append(m.capture[cpu], res)
		}
		used += total
		t.Cycles += total
		t.Insts += completion
		t.Ops += ref.Ops
	}
	t.pending = run
}

// Utilization returns the fraction of CPU-quanta that had a thread
// dispatched, since the machine started (1.0 = every hardware context
// busy every round).
func (m *Machine) Utilization() float64 {
	if m.dispatchSlots == 0 {
		return 0
	}
	return float64(m.dispatchBusy) / float64(m.dispatchSlots)
}

// TotalOps sums application-level operations completed by all threads.
func (m *Machine) TotalOps() uint64 {
	var ops uint64
	for _, t := range m.threads {
		ops += t.Ops
	}
	return ops
}

// Breakdown aggregates the exact stall breakdown across every CPU.
func (m *Machine) Breakdown() pmu.Breakdown {
	var b pmu.Breakdown
	for _, p := range m.pmus {
		b.Add(pmu.BreakdownFrom(p))
	}
	return b
}

// ResetMetrics clears PMU counts, per-thread metrics and overhead
// accounting, keeping caches warm and placement intact. Experiments use it
// to discard warm-up transients before the measured interval.
func (m *Machine) ResetMetrics() {
	for _, p := range m.pmus {
		p.Reset()
	}
	for _, t := range m.threads {
		t.Cycles, t.Insts, t.Ops, t.RemoteMisses = 0, 0, 0, 0
	}
	m.overhead = 0
}
