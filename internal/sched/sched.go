// Package sched implements the OS scheduling layer of the simulated
// machine: per-CPU run queues, the four thread-placement strategies the
// paper evaluates in Section 5.4 (default Linux, round-robin,
// hand-optimized, and automatic clustering), Linux-style reactive and
// pro-active load balancing, and the migration primitive the clustering
// engine uses to co-locate sharing threads on a chip.
package sched

import (
	"fmt"
	"sort"

	"threadcluster/internal/errs"
	"threadcluster/internal/rng"
	"threadcluster/internal/topology"
)

// ThreadID identifies a software thread managed by the scheduler.
type ThreadID int

// Policy selects a thread-placement strategy (Section 5.4).
type Policy int

const (
	// PolicyDefault mimics default Linux: initial placement on the least
	// loaded CPU, plus reactive (idle-steal) and pro-active (queue-length)
	// load balancing. It is sharing-oblivious.
	PolicyDefault Policy = iota
	// PolicyRoundRobin statically places threads round-robin across CPUs
	// with dynamic balancing disabled — the paper's worst-case scenario
	// where sharing threads are scattered across chips.
	PolicyRoundRobin
	// PolicyHandOptimized places each thread on the chip matching its
	// application partition (room, warehouse, database instance), with
	// dynamic balancing disabled. Requires a partition hint function.
	PolicyHandOptimized
	// PolicyClustered starts like PolicyDefault but leaves placement under
	// the control of the thread-clustering engine: cross-chip balancing is
	// disabled once the engine has migrated threads, and only intra-chip
	// balancing remains (Section 4.5).
	PolicyClustered
)

func (p Policy) String() string {
	switch p {
	case PolicyDefault:
		return "default"
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyHandOptimized:
		return "hand-optimized"
	case PolicyClustered:
		return "clustered"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Scheduler owns the run queues of every hardware context. It is
// deliberately simple — FIFO round-robin within each queue — because the
// paper's contribution is *placement*, not time-slicing.
//
// Scheduler is not safe for concurrent use; the simulator is
// single-goroutine.
type Scheduler struct {
	topo    topology.Topology // construction config; RestoreMachine rebuilds the scheduler with it
	policy  Policy            // construction config; policies are stateless placement logic
	queues  [][]ThreadID
	cpuOf   map[ThreadID]topology.CPUID
	running map[ThreadID]bool // dequeued by PickNext, not yet requeued

	partition func(ThreadID) int
	rrNext    int
	rng       *rng.Rand

	migrations uint64
	steals     uint64
	// pinned marks threads the clustering engine has placed; pro-active
	// balancing will not move them across chips.
	pinned map[ThreadID]bool
}

// New creates a scheduler for the topology under the given policy. The
// seed drives tie-breaking randomness (e.g. random intra-chip placement,
// Section 4.5).
func New(topo topology.Topology, policy Policy, seed int64) (*Scheduler, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		topo:    topo,
		policy:  policy,
		queues:  make([][]ThreadID, topo.NumCPUs()),
		cpuOf:   make(map[ThreadID]topology.CPUID),
		running: make(map[ThreadID]bool),
		pinned:  make(map[ThreadID]bool),
		rng:     rng.New(seed),
	}
	return s, nil
}

// Policy returns the placement policy in force.
func (s *Scheduler) Policy() Policy { return s.policy }

// Topology returns the machine shape.
func (s *Scheduler) Topology() topology.Topology { return s.topo }

// SetPartitionHint supplies the application-knowledge partition function
// used by PolicyHandOptimized (which chip a thread's room / warehouse /
// database instance belongs on).
func (s *Scheduler) SetPartitionHint(f func(ThreadID) int) { s.partition = f }

// AddThread places a new thread according to the policy and enqueues it.
func (s *Scheduler) AddThread(id ThreadID) error {
	if _, ok := s.cpuOf[id]; ok {
		return fmt.Errorf("sched: thread %d: %w", id, errs.ErrDuplicateThread)
	}
	var cpu topology.CPUID
	switch s.policy {
	case PolicyRoundRobin:
		cpu = topology.CPUID(s.rrNext % s.topo.NumCPUs())
		s.rrNext++
	case PolicyHandOptimized:
		if s.partition == nil {
			return fmt.Errorf("sched: hand-optimized policy requires a partition hint: %w", errs.ErrBadConfig)
		}
		chip := s.partition(id) % s.topo.Chips
		if chip < 0 {
			chip += s.topo.Chips
		}
		cpu = s.leastLoadedOnChip(chip)
	default: // PolicyDefault, PolicyClustered
		cpu = s.leastLoaded()
	}
	s.cpuOf[id] = cpu
	s.queues[cpu] = append(s.queues[cpu], id)
	return nil
}

// RemoveThread withdraws a thread from scheduling entirely.
func (s *Scheduler) RemoveThread(id ThreadID) {
	cpu, ok := s.cpuOf[id]
	if !ok {
		return
	}
	delete(s.cpuOf, id)
	delete(s.running, id)
	delete(s.pinned, id)
	s.queues[cpu] = remove(s.queues[cpu], id)
}

// PickNext dequeues the next runnable thread for the CPU, or reports false
// when the queue is empty. Under PolicyDefault (and PolicyClustered before
// pinning) an empty queue triggers reactive balancing: the idle CPU steals
// a thread from the machine's busiest queue (same-chip queues preferred).
func (s *Scheduler) PickNext(cpu topology.CPUID) (ThreadID, bool) {
	if len(s.queues[cpu]) == 0 && s.reactiveEnabled() {
		s.stealInto(cpu)
	}
	q := s.queues[cpu]
	if len(q) == 0 {
		return 0, false
	}
	id := q[0]
	s.queues[cpu] = q[1:]
	s.running[id] = true
	return id, true
}

// Requeue returns a thread picked by PickNext to the tail of its current
// CPU's queue (which may have changed if the thread was migrated while
// running).
func (s *Scheduler) Requeue(id ThreadID) {
	cpu, ok := s.cpuOf[id]
	if !ok {
		return // removed while running
	}
	if !s.running[id] {
		return
	}
	delete(s.running, id)
	s.queues[cpu] = append(s.queues[cpu], id)
}

// Migrate moves a thread to a specific CPU. If the thread is currently
// queued it moves queues immediately; if it is running it will be requeued
// on the new CPU at the end of its quantum.
func (s *Scheduler) Migrate(id ThreadID, cpu topology.CPUID) error {
	old, ok := s.cpuOf[id]
	if !ok {
		return fmt.Errorf("sched: thread %d: %w", id, errs.ErrUnknownThread)
	}
	if int(cpu) < 0 || int(cpu) >= s.topo.NumCPUs() {
		return fmt.Errorf("sched: CPU %d out of range: %w", int(cpu), errs.ErrBadConfig)
	}
	if old == cpu {
		return nil
	}
	s.cpuOf[id] = cpu
	if !s.running[id] {
		s.queues[old] = remove(s.queues[old], id)
		s.queues[cpu] = append(s.queues[cpu], id)
	}
	s.migrations++
	return nil
}

// Pin marks a thread as placed by the clustering engine so pro-active
// balancing will not undo the placement by moving it across chips.
func (s *Scheduler) Pin(id ThreadID) { s.pinned[id] = true }

// CPUOf returns the CPU a thread is assigned to.
func (s *Scheduler) CPUOf(id ThreadID) (topology.CPUID, bool) {
	cpu, ok := s.cpuOf[id]
	return cpu, ok
}

// ChipOf returns the chip a thread is assigned to.
func (s *Scheduler) ChipOf(id ThreadID) (int, bool) {
	cpu, ok := s.cpuOf[id]
	if !ok {
		return 0, false
	}
	return s.topo.ChipOf(cpu), true
}

// Threads returns every managed thread id in ascending order. The order
// matters: the clustering engine iterates this slice when computing
// filler placements, so it must not leak map iteration order into
// migration decisions.
func (s *Scheduler) Threads() []ThreadID {
	ids := make([]ThreadID, 0, len(s.cpuOf))
	for id := range s.cpuOf {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NumThreads returns the number of managed threads.
func (s *Scheduler) NumThreads() int { return len(s.cpuOf) }

// QueueLen returns the current length of a CPU's run queue (excluding a
// thread currently running on it).
func (s *Scheduler) QueueLen(cpu topology.CPUID) int { return len(s.queues[cpu]) }

// TotalQueued returns how many threads are sitting in run queues right
// now (dispatched threads excluded) — the machine-wide runqueue depth.
func (s *Scheduler) TotalQueued() int {
	total := 0
	for _, q := range s.queues {
		total += len(q)
	}
	return total
}

// ChipLoad returns the number of threads assigned to each chip.
func (s *Scheduler) ChipLoad() []int {
	load := make([]int, s.topo.Chips)
	for _, cpu := range s.cpuOf {
		load[s.topo.ChipOf(cpu)]++
	}
	return load
}

// Migrations returns how many migrations have been performed.
func (s *Scheduler) Migrations() uint64 { return s.migrations }

// Steals returns how many reactive-balance steals occurred.
func (s *Scheduler) Steals() uint64 { return s.steals }

// RandomCPUOnChip returns a uniformly random hardware context of a chip —
// the paper's intra-chip placement rule (Section 4.5: "load balance within
// each chip is addressed by uniformly and randomly assigning threads to
// the cores and the different hardware contexts").
func (s *Scheduler) RandomCPUOnChip(chip int) topology.CPUID {
	cpus := s.topo.CPUsOfChip(chip)
	return cpus[s.rng.Intn(len(cpus))]
}

// LeastSMTLoadedCPUOnChip returns a hardware context of the chip on the
// core with the fewest assigned threads (ties broken by the less loaded
// context). Cores-first placement keeps SMT siblings free while whole
// cores are idle — the SMT-aware alternative to the paper's random
// intra-chip rule, in the spirit of the Section 2 co-scheduling work
// (Bulpin & Pratt, Fedorova et al.).
func (s *Scheduler) LeastSMTLoadedCPUOnChip(chip int) topology.CPUID {
	perCPU := make(map[topology.CPUID]int)
	for _, cpu := range s.cpuOf {
		perCPU[cpu]++
	}
	bestCPU := topology.CPUID(-1)
	bestCore, bestCtx := 1<<30, 1<<30
	for core := chip * s.topo.CoresPerChip; core < (chip+1)*s.topo.CoresPerChip; core++ {
		coreLoad := 0
		for _, cpu := range s.topo.CPUsOfCore(core) {
			coreLoad += perCPU[cpu]
		}
		for _, cpu := range s.topo.CPUsOfCore(core) {
			if coreLoad < bestCore || (coreLoad == bestCore && perCPU[cpu] < bestCtx) {
				bestCPU, bestCore, bestCtx = cpu, coreLoad, perCPU[cpu]
			}
		}
	}
	return bestCPU
}

func (s *Scheduler) reactiveEnabled() bool {
	return s.policy == PolicyDefault || s.policy == PolicyClustered
}

// stealInto implements reactive balancing: move one thread from the
// busiest queue to the idle CPU. Queues on the idle CPU's own chip are
// preferred so a steal does not break chip affinity unnecessarily, and
// pinned threads are never stolen across chips.
func (s *Scheduler) stealInto(idle topology.CPUID) {
	idleChip := s.topo.ChipOf(idle)
	best := topology.CPUID(-1)
	bestLen, bestSameChip := 0, false
	for c := range s.queues {
		cpu := topology.CPUID(c)
		if cpu == idle {
			continue
		}
		n := len(s.queues[c])
		if n == 0 {
			continue
		}
		sameChip := s.topo.ChipOf(cpu) == idleChip
		better := n > bestLen || (n == bestLen && sameChip && !bestSameChip)
		if better {
			best, bestLen, bestSameChip = cpu, n, sameChip
		}
	}
	if best < 0 {
		return
	}
	// Find a stealable thread from the tail (coldest cache footprint).
	q := s.queues[best]
	for i := len(q) - 1; i >= 0; i-- {
		id := q[i]
		if s.pinned[id] && s.topo.ChipOf(best) != idleChip {
			continue
		}
		s.queues[best] = append(append([]ThreadID{}, q[:i]...), q[i+1:]...)
		s.cpuOf[id] = idle
		s.queues[idle] = append(s.queues[idle], id)
		s.steals++
		return
	}
}

// ProactiveBalance evens out run-queue lengths, mimicking Linux's periodic
// balancer. Under PolicyDefault it balances machine-wide; under
// PolicyClustered it balances only within each chip so engine placements
// survive; under the static policies it does nothing.
func (s *Scheduler) ProactiveBalance() {
	switch s.policy {
	case PolicyDefault:
		s.balanceAcross(allCPUs(s.topo))
	case PolicyClustered:
		for chip := 0; chip < s.topo.Chips; chip++ {
			s.balanceAcross(s.topo.CPUsOfChip(chip))
		}
	}
}

// balanceAcross repeatedly moves one queued, unpinned-or-same-chip thread
// from the longest to the shortest queue in the set until the lengths
// differ by at most one.
func (s *Scheduler) balanceAcross(cpus []topology.CPUID) {
	for iter := 0; iter < 4*len(cpus); iter++ {
		lo, hi := cpus[0], cpus[0]
		for _, c := range cpus {
			if len(s.queues[c]) < len(s.queues[lo]) {
				lo = c
			}
			if len(s.queues[c]) > len(s.queues[hi]) {
				hi = c
			}
		}
		if len(s.queues[hi])-len(s.queues[lo]) <= 1 {
			return
		}
		q := s.queues[hi]
		moved := false
		for i := len(q) - 1; i >= 0; i-- {
			id := q[i]
			if s.pinned[id] && s.topo.ChipOf(hi) != s.topo.ChipOf(lo) {
				continue
			}
			s.queues[hi] = append(append([]ThreadID{}, q[:i]...), q[i+1:]...)
			s.cpuOf[id] = lo
			s.queues[lo] = append(s.queues[lo], id)
			moved = true
			break
		}
		if !moved {
			return
		}
	}
}

// CheckInvariants verifies internal consistency: every managed thread is
// either running or queued exactly once, on the queue its cpuOf entry
// names. Tests call this after stress sequences.
func (s *Scheduler) CheckInvariants() error {
	seen := make(map[ThreadID]topology.CPUID)
	for c, q := range s.queues {
		for _, id := range q {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("sched: thread %d queued on both CPU %d and CPU %d", id, prev, c)
			}
			seen[id] = topology.CPUID(c)
			if s.running[id] {
				return fmt.Errorf("sched: thread %d both running and queued", id)
			}
			if s.cpuOf[id] != topology.CPUID(c) {
				return fmt.Errorf("sched: thread %d queued on CPU %d but mapped to %d", id, c, s.cpuOf[id])
			}
		}
	}
	for id := range s.cpuOf {
		if _, queued := seen[id]; !queued && !s.running[id] {
			return fmt.Errorf("sched: thread %d neither queued nor running", id)
		}
	}
	for id := range s.running {
		if _, ok := s.cpuOf[id]; !ok {
			return fmt.Errorf("sched: running thread %d not managed", id)
		}
	}
	return nil
}

// leastLoaded picks the CPU with the shortest queue, breaking ties
// uniformly at random the way Linux's wake-up placement is effectively
// arbitrary with respect to data sharing. The randomness is what keeps
// "default" placement from degenerating into the engineered worst case
// that round-robin placement represents.
func (s *Scheduler) leastLoaded() topology.CPUID {
	best := len(s.queues[0])
	for c := range s.queues {
		if len(s.queues[c]) < best {
			best = len(s.queues[c])
		}
	}
	ties := make([]topology.CPUID, 0, len(s.queues))
	for c := range s.queues {
		if len(s.queues[c]) == best {
			ties = append(ties, topology.CPUID(c))
		}
	}
	return ties[s.rng.Intn(len(ties))]
}

func (s *Scheduler) leastLoadedOnChip(chip int) topology.CPUID {
	cpus := s.topo.CPUsOfChip(chip)
	best := cpus[0]
	for _, c := range cpus {
		if len(s.queues[c]) < len(s.queues[best]) {
			best = c
		}
	}
	return best
}

func allCPUs(t topology.Topology) []topology.CPUID {
	cpus := make([]topology.CPUID, t.NumCPUs())
	for i := range cpus {
		cpus[i] = topology.CPUID(i)
	}
	return cpus
}

func remove(q []ThreadID, id ThreadID) []ThreadID {
	for i, v := range q {
		if v == id {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}
