// Package core implements the paper's contribution: the iterative
// four-phase thread-clustering scheme of Section 4.
//
//  1. Monitoring stall breakdown: hardware counters watch what share of
//     CPU cycles is lost to remote cache accesses; the scheme activates
//     only when that share exceeds a threshold per monitoring window
//     (the paper uses 20% per billion cycles).
//  2. Detecting sharing patterns: a PMU overflow exception is programmed
//     on the remote-cache-access event so that one in N remote accesses
//     is sampled (temporal sampling, with a small random readjustment of
//     N); the sampled data address — read from the continuous-sampling
//     register exactly as Section 5.2.1 composes it on the Power5 — is
//     pushed through the process-wide shMap filter (spatial sampling) and
//     recorded in the interrupted thread's shMap.
//  3. Thread clustering: once enough samples are collected, shMaps are
//     compared with the dot-product similarity metric and grouped by the
//     one-pass heuristic of Section 4.4.2.
//  4. Thread migration: clusters are assigned to chips largest-first,
//     keeping the chips load-balanced; threads within a chip are spread
//     uniformly at random over its cores and hardware contexts
//     (Section 4.5).
//
// After migration the engine returns to monitoring, so phase changes in
// the workload re-trigger detection and re-clustering automatically.
package core

import (
	"fmt"
	"sort"

	"threadcluster/internal/clustering"
	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/pmu"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/topology"
)

// Phase is the engine's state.
type Phase int

const (
	// PhaseMonitoring is the cheap steady state: only the stall breakdown
	// is watched.
	PhaseMonitoring Phase = iota
	// PhaseDetecting is the sampling state: remote-access overflow
	// interrupts are live and shMaps are filling.
	PhaseDetecting
)

func (p Phase) String() string {
	switch p {
	case PhaseMonitoring:
		return "monitoring"
	case PhaseDetecting:
		return "detecting"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Config parameterizes the engine. The defaults are the paper's values;
// experiments scale the window and sample target to simulated time.
type Config struct {
	// ActivationFraction activates detection when remote-access stalls
	// exceed this fraction of cycles in a monitoring window (paper: 0.20).
	ActivationFraction float64
	// MonitorWindow is the monitoring window length in cycles (paper: one
	// billion).
	MonitorWindow uint64
	// SamplingInterval N records one in N remote cache accesses
	// (temporal sampling; paper's balanced choice is N=10).
	SamplingInterval uint64
	// SamplingJitter constantly readjusts N by a small random value to
	// avoid undesired repeated patterns (Section 4.3.1). Zero disables.
	SamplingJitter uint64
	// TargetSamples ends the detection phase once this many samples have
	// been read (paper: roughly one million).
	TargetSamples int
	// ShMapEntries is the per-thread vector size (paper: 256).
	ShMapEntries int
	// FilterQuota caps the filter entries one thread may claim
	// (Section 4.3.1's starvation limit). Zero means ShMapEntries/4.
	FilterQuota int
	// Clustering carries the similarity threshold, noise floor, global
	// fraction and metric.
	Clustering clustering.Config
	// InterruptCost is the cycles charged per sampling interrupt
	// (exception entry, SDAR read, filter/shMap update, return). This is
	// the source of the Figure 8 overhead curve.
	InterruptCost uint64
	// PMUSlot is the physical counter slot used for the remote-access
	// overflow event.
	PMUSlot int
	// MinClusterSize treats smaller detected clusters as unclustered
	// filler during migration (default 2: singletons carry no sharing
	// signal).
	MinClusterSize int
	// SettleCycles suspends monitoring for this long after a migration so
	// the one-time burst of remote accesses caused by cache and TLB
	// context reloading (Section 7.2) does not immediately re-trigger
	// detection. Zero defaults to one monitoring window.
	SettleCycles uint64
	// NUMA enables the Section 8 extension: misses satisfied from remote
	// memory are sampled alongside remote cache accesses (a second
	// overflow counter on the remote-memory miss event), and the
	// activation rule counts remote-memory stalls too.
	NUMA bool
	// NodeOf, when set in NUMA mode, gives the engine the OS's
	// page-to-node mapping. Migration then prefers placing each cluster
	// on the chip where the majority of its sampled lines are homed, so
	// threads end up next to their data as well as next to each other.
	NodeOf func(memory.Addr) int
	// IntraChipSpread, when true, replaces the paper's uniformly random
	// intra-chip placement (Section 4.5) with SMT-aware cores-first
	// placement: new threads go to the least-loaded core of the chip so
	// SMT siblings stay free while whole cores are idle. An ablation for
	// the intra-chip design choice the paper leaves to the Section 2
	// co-scheduling literature.
	IntraChipSpread bool
	// ProcessOf maps a thread to its process. When set, each process
	// gets its own shMap filter ("all threads of a process use the same
	// shMap filter", Section 4.3.1) and clustering runs within each
	// process — shMap entry indices of different processes name
	// different cache lines and must never be compared. Nil models a
	// single process.
	ProcessOf func(sched.ThreadID) int
	// Seed drives sampling jitter.
	Seed int64
}

// DefaultConfig returns the paper's parameter choices.
func DefaultConfig() Config {
	return Config{
		ActivationFraction: 0.20,
		MonitorWindow:      1_000_000_000,
		SamplingInterval:   10,
		SamplingJitter:     3,
		TargetSamples:      1_000_000,
		ShMapEntries:       clustering.DefaultEntries,
		Clustering:         clustering.DefaultConfig(),
		InterruptCost:      250,
		PMUSlot:            pmu.NumPhysicalCounters - 1,
		MinClusterSize:     2,
	}
}

// jitterStream is the engine's stream under the run seed: the machine's
// scheduler draws from the run seed itself and the workloads from their
// own derived streams, and the engine must not share either's draws.
const jitterStream = 0x7C1

// Engine is the thread-clustering engine attached to one machine.
type Engine struct {
	cfg Config
	m   *sim.Machine //tclint:allow snapfields -- machine attachment; Install re-links it before RestoreSnapshot overlays state

	phase         Phase
	windowStart   uint64
	baseCycles    uint64
	baseRemote    uint64
	baseRemoteMem uint64

	shmaps  map[clustering.ThreadKey]*clustering.ShMap
	filter  *clustering.Filter         //tclint:allow snapfields -- aliases filters[0], whose section carries the data; RestoreState re-links it
	filters map[int]*clustering.Filter // per process, including 0
	rng     *rng.Rand

	samplesRead        int
	samplesAdmitted    int
	cumSamplesRead     uint64 // across all detection phases (metrics)
	cumSamplesAdmitted uint64
	clusterings        uint64 // completed clustering passes
	clusters           []clustering.Cluster

	detectStart     uint64
	settleUntil     uint64 // monitoring suspended until this clock value
	lastDetectTime  uint64 // cycles the last detection phase took
	activations     uint64
	migrationsDone  uint64
	installed       bool
	clusterListener func([]clustering.Cluster)
	prevClusters    []clustering.Cluster
	lastStability   float64
	stabilityKnown  bool
}

// New creates an engine for the machine. Call Install to arm it.
func New(m *sim.Machine, cfg Config) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("core: machine is required: %w", errs.ErrBadConfig)
	}
	if cfg.ShMapEntries <= 0 {
		cfg.ShMapEntries = clustering.DefaultEntries
	}
	if cfg.FilterQuota <= 0 {
		cfg.FilterQuota = cfg.ShMapEntries / 4
	}
	if cfg.SamplingInterval == 0 {
		cfg.SamplingInterval = 10
	}
	if cfg.TargetSamples <= 0 {
		cfg.TargetSamples = 1_000_000
	}
	if cfg.MonitorWindow == 0 {
		cfg.MonitorWindow = 1_000_000_000
	}
	if cfg.PMUSlot < 0 || cfg.PMUSlot >= pmu.NumPhysicalCounters {
		return nil, fmt.Errorf("core: PMU slot %d out of range: %w", cfg.PMUSlot, errs.ErrBadConfig)
	}
	if cfg.MinClusterSize <= 0 {
		cfg.MinClusterSize = 2
	}
	filter, err := clustering.NewFilter(cfg.ShMapEntries, cfg.FilterQuota)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     cfg,
		m:       m,
		phase:   PhaseMonitoring,
		shmaps:  make(map[clustering.ThreadKey]*clustering.ShMap),
		filter:  filter,
		filters: map[int]*clustering.Filter{0: filter},
		rng:     rng.New(rng.Derive(cfg.Seed, jitterStream)),
	}, nil
}

// Install programs the PMUs and hooks the machine's scheduler tick. The
// engine starts in the monitoring phase with sampling disarmed.
func (e *Engine) Install() error {
	if e.installed {
		return fmt.Errorf("core: engine: %w", errs.ErrAlreadyInstalled)
	}
	for c := 0; c < e.m.Topology().NumCPUs(); c++ {
		cpu := topology.CPUID(c)
		p := e.m.PMU(cpu)
		// overflowAt 0 = armed but silent until detection starts.
		handler := e.sampleHandler(cpu)
		if err := p.Program(e.cfg.PMUSlot, pmu.EvRemoteAccess, 0, handler); err != nil {
			return err
		}
		if e.cfg.NUMA {
			// Section 8: also sample misses satisfied from remote memory.
			if err := p.Program(e.numaSlot(), pmu.EvMissRemoteMemory, 0, handler); err != nil {
				return err
			}
		}
	}
	e.m.OnTick(e.tick)
	if err := e.m.RegisterStateProvider(StateProviderName, sim.StateProvider{
		Save:    e.SaveState,
		Restore: e.RestoreState,
	}); err != nil {
		return err
	}
	e.windowStart = e.m.Clock()
	e.snapshotWindowBase()
	e.registerMetrics()
	e.installed = true
	return nil
}

// Phase returns the engine's current phase.
func (e *Engine) Phase() Phase { return e.phase }

// Clusters returns the most recent clustering result (nil before the
// first detection completes).
func (e *Engine) Clusters() []clustering.Cluster { return e.clusters }

// ShMaps returns the per-thread sharing signatures of the most recent (or
// in-progress) detection phase. The Figure 5 visualizer renders these.
func (e *Engine) ShMaps() map[clustering.ThreadKey]*clustering.ShMap { return e.shmaps }

// Filter returns the process-wide shMap filter.
func (e *Engine) Filter() *clustering.Filter { return e.filter }

// Activations returns how many times detection was triggered.
func (e *Engine) Activations() uint64 { return e.activations }

// Clusterings returns how many clustering passes have completed.
func (e *Engine) Clusterings() uint64 { return e.clusterings }

// SamplesRead returns overflow samples read in the current/last detection.
func (e *Engine) SamplesRead() int { return e.samplesRead }

// SamplesAdmitted returns samples that passed the shMap filter.
func (e *Engine) SamplesAdmitted() int { return e.samplesAdmitted }

// LastDetectionCycles returns how long the last completed detection phase
// lasted, in cycles (the Figure 8 "tracking time").
func (e *Engine) LastDetectionCycles() uint64 { return e.lastDetectTime }

// MigrationsDone returns how many cluster migrations were executed.
func (e *Engine) MigrationsDone() uint64 { return e.migrationsDone }

// OnClusters registers a listener invoked with each fresh clustering
// result, before migration.
func (e *Engine) OnClusters(f func([]clustering.Cluster)) { e.clusterListener = f }

// ForceDetection enters the detection phase immediately, regardless of the
// activation threshold. Experiments that study the detection machinery in
// isolation (Figures 5 and 8) use it.
func (e *Engine) ForceDetection() {
	if e.phase != PhaseDetecting {
		e.enterDetection()
	}
}

// sampleHandler builds the overflow handler for one CPU: the Section 5.2.1
// composition. It runs synchronously when the remote-access counter
// overflows; it reads the sampling register (which the hardware updates on
// every L1D miss), attributes the line to the interrupted thread, and
// pushes it through the spatial filter.
func (e *Engine) sampleHandler(cpu topology.CPUID) pmu.OverflowHandler {
	return func(p *pmu.PMU) uint64 {
		if e.phase != PhaseDetecting {
			return 0
		}
		e.samplesRead++
		e.cumSamplesRead++
		s := p.ReadSDAR()
		th := e.m.RunningThread(cpu)
		if s.Valid && th != nil {
			key := clustering.ThreadKey(th.ID)
			if idx, ok := e.filterFor(th.ID).Admit(key, s.Line); ok {
				e.shmapFor(key).Increment(idx)
				e.samplesAdmitted++
				e.cumSamplesAdmitted++
			}
		}
		// Temporal sampling: constantly readjust N by a small random
		// value to avoid lockstep with periodic access patterns.
		if e.cfg.SamplingJitter > 0 {
			j := uint64(e.rng.Int63n(int64(2*e.cfg.SamplingJitter + 1)))
			n := e.cfg.SamplingInterval + j
			if n > e.cfg.SamplingJitter {
				n -= e.cfg.SamplingJitter
			}
			if n == 0 {
				n = 1
			}
			_ = p.SetOverflowThreshold(e.cfg.PMUSlot, n)
			if e.cfg.NUMA {
				_ = p.SetOverflowThreshold(e.numaSlot(), n)
			}
		}
		return e.cfg.InterruptCost
	}
}

// numaSlot is the physical counter used for remote-memory sampling in
// NUMA mode: the slot next to the remote-cache one.
func (e *Engine) numaSlot() int {
	if e.cfg.PMUSlot > 0 {
		return e.cfg.PMUSlot - 1
	}
	return e.cfg.PMUSlot + 1
}

// filterFor returns the thread's process-wide shMap filter, creating a
// fresh one the first time a process is seen.
func (e *Engine) filterFor(id sched.ThreadID) *clustering.Filter {
	if e.cfg.ProcessOf == nil {
		return e.filter
	}
	proc := e.cfg.ProcessOf(id)
	f, ok := e.filters[proc]
	if !ok {
		f, _ = clustering.NewFilter(e.cfg.ShMapEntries, e.cfg.FilterQuota)
		e.filters[proc] = f
	}
	return f
}

func (e *Engine) shmapFor(key clustering.ThreadKey) *clustering.ShMap {
	m, ok := e.shmaps[key]
	if !ok {
		m = clustering.NewShMap(e.cfg.ShMapEntries)
		e.shmaps[key] = m
	}
	return m
}

// tick is the engine's per-scheduling-round state machine.
func (e *Engine) tick(m *sim.Machine) {
	switch e.phase {
	case PhaseDetecting:
		if e.samplesRead >= e.cfg.TargetSamples {
			e.finishDetection()
		}
	case PhaseMonitoring:
		if m.Clock() < e.settleUntil {
			// Post-migration settling: let the reload burst pass, then
			// restart the window cleanly.
			e.windowStart = m.Clock()
			e.snapshotWindowBase()
			return
		}
		if m.Clock()-e.windowStart >= e.cfg.MonitorWindow {
			if e.windowRemoteFraction() > e.cfg.ActivationFraction {
				e.enterDetection()
			} else {
				e.windowStart = m.Clock()
				e.snapshotWindowBase()
			}
		}
	}
}

// windowRemoteFraction computes the share of cycles lost to remote cache
// accesses since the window began, machine-wide. In NUMA mode,
// remote-memory stalls count too (Section 8).
func (e *Engine) windowRemoteFraction() float64 {
	b := e.m.Breakdown()
	cycles := b.Cycles - e.baseCycles
	remote := b.RemoteStalls() - e.baseRemote
	if e.cfg.NUMA {
		remote += b.RemoteMemoryStalls() - e.baseRemoteMem
	}
	if cycles == 0 {
		return 0
	}
	return float64(remote) / float64(cycles)
}

func (e *Engine) snapshotWindowBase() {
	b := e.m.Breakdown()
	e.baseCycles = b.Cycles
	e.baseRemote = b.RemoteStalls()
	e.baseRemoteMem = b.RemoteMemoryStalls()
}

// enterDetection arms sampling and clears the previous detection state so
// previously victimized threads get another chance at filter entries.
func (e *Engine) enterDetection() {
	e.phase = PhaseDetecting
	e.activations++
	e.samplesRead = 0
	e.samplesAdmitted = 0
	e.shmaps = make(map[clustering.ThreadKey]*clustering.ShMap)
	for _, f := range e.filters {
		f.Reset()
	}
	e.detectStart = e.m.Clock()
	for c := 0; c < e.m.Topology().NumCPUs(); c++ {
		p := e.m.PMU(topology.CPUID(c))
		_ = p.SetOverflowThreshold(e.cfg.PMUSlot, e.cfg.SamplingInterval)
		if e.cfg.NUMA {
			_ = p.SetOverflowThreshold(e.numaSlot(), e.cfg.SamplingInterval)
		}
	}
}

// finishDetection disarms sampling, clusters the shMaps and migrates the
// clusters, then returns to monitoring.
func (e *Engine) finishDetection() {
	e.lastDetectTime = e.m.Clock() - e.detectStart
	for c := 0; c < e.m.Topology().NumCPUs(); c++ {
		p := e.m.PMU(topology.CPUID(c))
		_ = p.SetOverflowThreshold(e.cfg.PMUSlot, 0)
		if e.cfg.NUMA {
			_ = p.SetOverflowThreshold(e.numaSlot(), 0)
		}
	}
	e.prevClusters = e.clusters
	e.clusters = e.clusterAll()
	e.clusterings++
	if e.prevClusters != nil {
		// Stability across re-clusterings: the Rand index between the
		// previous and current partitions, over threads that were in a
		// real cluster both times. A successful migration legitimately
		// leaves the next detection with little to see (co-located
		// threads stop missing remotely), which is agreement, not churn.
		e.lastStability = clusteringAgreement(e.prevClusters, e.clusters, e.cfg.MinClusterSize)
		e.stabilityKnown = true
	}
	if e.clusterListener != nil {
		e.clusterListener(e.clusters)
	}
	e.migrate(e.clusters)
	e.phase = PhaseMonitoring
	settle := e.cfg.SettleCycles
	if settle == 0 {
		settle = e.cfg.MonitorWindow
	}
	e.settleUntil = e.m.Clock() + settle
	e.windowStart = e.m.Clock()
	e.snapshotWindowBase()
}

// Stability returns the Rand-index agreement between the two most recent
// clusterings and whether two clusterings have happened yet. For a
// workload whose sharing pattern is static, successive re-clusterings
// should agree (stability near 1); low stability flags either a workload
// phase change or an unreliable detection configuration.
func (e *Engine) Stability() (float64, bool) { return e.lastStability, e.stabilityKnown }

// clusteringAgreement computes the Rand index between two clusterings
// over the threads that belong to a cluster of at least minSize in both.
func clusteringAgreement(a, b []clustering.Cluster, minSize int) float64 {
	assignA := clustering.Assignment(a)
	assignB := clustering.Assignment(b)
	realMembers := func(cs []clustering.Cluster) map[clustering.ThreadKey]bool {
		out := make(map[clustering.ThreadKey]bool)
		for _, c := range cs {
			if c.Size() >= minSize {
				for _, t := range c.Members {
					out[t] = true
				}
			}
		}
		return out
	}
	realA, realB := realMembers(a), realMembers(b)
	var common []clustering.ThreadKey
	for k := range realA {
		if realB[k] {
			common = append(common, k)
		}
	}
	sort.Slice(common, func(i, j int) bool { return common[i] < common[j] })
	if len(common) < 2 {
		return 1
	}
	agree, pairs := 0, 0
	for i := 0; i < len(common); i++ {
		for j := i + 1; j < len(common); j++ {
			sameA := assignA[common[i]] == assignA[common[j]]
			sameB := assignB[common[i]] == assignB[common[j]]
			if sameA == sameB {
				agree++
			}
			pairs++
		}
	}
	return float64(agree) / float64(pairs)
}

// clusterAll runs the one-pass clusterer. With a single process it runs
// over all shMaps directly; with multiple processes it runs within each
// process (entry indices of different processes name different lines) and
// concatenates the results.
func (e *Engine) clusterAll() []clustering.Cluster {
	if e.cfg.ProcessOf == nil {
		return e.cfg.Clustering.Cluster(e.shmaps)
	}
	byProc := make(map[int]map[clustering.ThreadKey]*clustering.ShMap)
	for key, sm := range e.shmaps {
		proc := e.cfg.ProcessOf(sched.ThreadID(key))
		if byProc[proc] == nil {
			byProc[proc] = make(map[clustering.ThreadKey]*clustering.ShMap)
		}
		byProc[proc][key] = sm
	}
	procs := make([]int, 0, len(byProc))
	for p := range byProc {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	var all []clustering.Cluster
	for _, p := range procs {
		all = append(all, e.cfg.Clustering.Cluster(byProc[p])...)
	}
	return all
}

// migrate implements the Section 4.5 cluster-to-chip assignment:
//
//   - sort clusters from largest to smallest;
//   - assign the current largest cluster to the chip with the fewest
//     threads so far;
//   - if that would unbalance the chips, spread the cluster's threads
//     evenly across all chips instead (the cluster is "neutralized");
//   - finally place unclustered threads to balance out the differences;
//   - within a chip, threads go to uniformly random hardware contexts.
func (e *Engine) migrate(clusters []clustering.Cluster) {
	topo := e.m.Topology()
	s := e.m.Scheduler()

	ordered := make([]clustering.Cluster, len(clusters))
	copy(ordered, clusters)
	clustering.SortBySize(ordered)

	// Threads the engine is placing this round: every thread that has a
	// shMap (i.e. took remote misses). Others keep their placement but
	// still count toward chip load.
	total := s.NumThreads()
	if total == 0 {
		return
	}
	capacity := (total + topo.Chips - 1) / topo.Chips

	// Split the detected clusters into real clusters (explicitly placed)
	// and filler (singletons and sub-threshold groups). Filler threads,
	// like threads that never suffered a remote miss at all, carry no
	// sharing signal: they keep their current placement and are only
	// moved at the end if the chips came out unbalanced. This keeps the
	// iterative re-clustering process stable — a thread with good
	// locality is not churned between chips just because it stopped
	// missing remotely.
	clustered := make(map[sched.ThreadID]bool)
	var filler []sched.ThreadID
	for _, c := range ordered {
		if c.Size() < e.cfg.MinClusterSize {
			for _, t := range c.Members {
				filler = append(filler, sched.ThreadID(t))
			}
			continue
		}
		for _, t := range c.Members {
			clustered[sched.ThreadID(t)] = true
		}
	}

	load := make([]int, topo.Chips)
	fillerOn := make([][]sched.ThreadID, topo.Chips)
	for _, id := range s.Threads() {
		if clustered[id] {
			continue
		}
		chip, ok := s.ChipOf(id)
		if !ok {
			continue
		}
		load[chip]++
		if isFiller(filler, id) {
			fillerOn[chip] = append(fillerOn[chip], id)
		}
	}

	place := func(id sched.ThreadID, chip int) {
		var cpu topology.CPUID
		if e.cfg.IntraChipSpread {
			cpu = s.LeastSMTLoadedCPUOnChip(chip)
		} else {
			cpu = s.RandomCPUOnChip(chip)
		}
		if err := s.Migrate(id, cpu); err == nil {
			s.Pin(id)
			e.migrationsDone++
		}
		load[chip]++
	}

	for _, c := range ordered {
		if c.Size() < e.cfg.MinClusterSize {
			continue
		}
		chip := argmin(load)
		// NUMA extension: prefer the chip holding the cluster's data if
		// that does not break the balance budget.
		if pref, ok := e.preferredChip(c); ok && load[pref]+c.Size() <= capacity {
			chip = pref
		}
		if load[chip]+c.Size() > capacity {
			// Would unbalance: neutralize the cluster by spreading its
			// threads evenly (Section 4.5).
			for _, t := range c.Members {
				place(sched.ThreadID(t), argmin(load))
			}
			continue
		}
		for _, t := range c.Members {
			place(sched.ThreadID(t), chip)
		}
	}

	// Rebalance with filler threads only: move them from the most to the
	// least loaded chip until the spread is at most one.
	for iter := 0; iter < total; iter++ {
		lo, hi := argmin(load), argmax(load)
		if load[hi]-load[lo] <= 1 {
			break
		}
		moved := false
		for i, id := range fillerOn[hi] {
			fillerOn[hi] = append(fillerOn[hi][:i], fillerOn[hi][i+1:]...)
			load[hi]--
			place(id, lo)
			fillerOn[lo] = append(fillerOn[lo], id)
			moved = true
			break
		}
		if !moved {
			break // no movable thread on the overloaded chip
		}
	}
}

func isFiller(filler []sched.ThreadID, id sched.ThreadID) bool {
	for _, f := range filler {
		if f == id {
			return true
		}
	}
	return false
}

// preferredChip votes, over the cluster's sampled cache lines, for the
// chip whose memory homes most of the cluster's data (weighted by
// sampling intensity). It reports false when not in NUMA mode or when no
// line carried a vote.
func (e *Engine) preferredChip(c clustering.Cluster) (int, bool) {
	if !e.cfg.NUMA || e.cfg.NodeOf == nil {
		return 0, false
	}
	chips := e.m.Topology().Chips
	votes := make([]uint64, chips)
	var total uint64
	filter := e.filter
	if len(c.Members) > 0 {
		filter = e.filterFor(sched.ThreadID(c.Members[0]))
	}
	for idx := 0; idx < filter.Len(); idx++ {
		line, claimed := filter.EntryLine(idx)
		if !claimed {
			continue
		}
		var weight uint64
		for _, t := range c.Members {
			if sm, ok := e.shmaps[t]; ok && idx < sm.Len() {
				if v := sm.Get(idx); v >= e.cfg.Clustering.Floor {
					weight += uint64(v)
				}
			}
		}
		if weight == 0 {
			continue
		}
		votes[e.cfg.NodeOf(line)%chips] += weight
		total += weight
	}
	if total == 0 {
		return 0, false
	}
	best := 0
	for i := range votes {
		if votes[i] > votes[best] {
			best = i
		}
	}
	return best, true
}

func argmin(v []int) int {
	best := 0
	for i := range v {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

func argmax(v []int) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
