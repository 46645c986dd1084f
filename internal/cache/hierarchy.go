package cache

import (
	"fmt"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// Source says which level of the hierarchy satisfied an access. Local means
// "on the same chip as the requesting CPU" (the paper treats the directly
// attached off-chip L3 as local too); Remote means "on any other chip".
type Source int

const (
	// SrcL1 is a hit in the core's own L1 data cache.
	SrcL1 Source = iota
	// SrcL2 is a hit in the chip-local L2.
	SrcL2
	// SrcL3 is a hit in the chip-local victim L3.
	SrcL3
	// SrcRemoteL2 is a transfer from another chip's L2.
	SrcRemoteL2
	// SrcRemoteL3 is a transfer from another chip's L3.
	SrcRemoteL3
	// SrcMemory is a fill from the local chip's memory (or from memory
	// generally when the hierarchy is not NUMA-configured).
	SrcMemory
	// SrcRemoteMemory is a fill from another chip's memory controller
	// (NUMA mode only).
	SrcRemoteMemory
	// NumSources is the number of distinct sources.
	NumSources int = iota
)

func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	case SrcL3:
		return "L3"
	case SrcRemoteL2:
		return "remote-L2"
	case SrcRemoteL3:
		return "remote-L3"
	case SrcMemory:
		return "memory"
	case SrcRemoteMemory:
		return "remote-memory"
	}
	return fmt.Sprintf("Source(%d)", int(s))
}

// Remote reports whether the source is a *remote cache* — the event class
// the paper's base scheme samples. Remote memory is classified separately
// (Section 8's NUMA extension samples it too).
func (s Source) Remote() bool { return s == SrcRemoteL2 || s == SrcRemoteL3 }

// CrossChip reports whether satisfying the access crossed a chip
// boundary at all (remote cache or remote memory).
func (s Source) CrossChip() bool { return s.Remote() || s == SrcRemoteMemory }

// AccessResult describes how one data access was satisfied.
type AccessResult struct {
	// Line is the cache line the access touched.
	Line memory.Addr
	// Source is the level that satisfied the access.
	Source Source
	// Cycles is the latency charged for the access.
	Cycles uint64
	// L1Miss reports whether the access missed the L1 (every source other
	// than SrcL1). The PMU's continuous sampling register is updated on L1
	// misses, so this drives sampling.
	L1Miss bool
}

// HierarchyConfig sizes the three cache levels and selects the coherence
// implementation. The zero value of the sizing fields is not usable; use
// Power5Config for the paper's platform (Table 1). The zero Coherence is
// CoherenceDirectory, so existing configurations get the directory fast
// path by default.
type HierarchyConfig struct {
	L1 Config // per core
	L2 Config // per chip
	L3 Config // per chip (victim)
	// Coherence picks the protocol implementation: CoherenceDirectory
	// (default, O(holder chips) coherence actions, supports deferred
	// slice-barrier execution via Lane) or CoherenceBroadcast (reference
	// linear scans). Access-for-access the two are observably identical;
	// machines wider than 64 chips silently run broadcast.
	Coherence CoherenceMode
}

// Power5Config returns Table 1's cache sizes: 64 KB 4-way L1 data cache per
// core, 2 MB 10-way L2 per chip, 36 MB 12-way victim L3 per chip.
func Power5Config() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{SizeBytes: 64 << 10, Ways: 4},
		L2: Config{SizeBytes: 2 << 20, Ways: 10},
		L3: Config{SizeBytes: 36 << 20, Ways: 12},
	}
}

// SmallConfig returns a deliberately tiny hierarchy for tests that need to
// force capacity evictions quickly.
func SmallConfig() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{SizeBytes: 4 << 10, Ways: 2},
		L2: Config{SizeBytes: 16 << 10, Ways: 4},
		L3: Config{SizeBytes: 64 << 10, Ways: 4},
	}
}

// Hierarchy is the machine-wide cache system: one L1 per core, one L2 and
// one victim L3 per chip, kept coherent with an invalidation protocol.
//
// Every access goes through the issuing chip's Lane (lane.go), which
// holds the one walk down the ladder for both coherence modes. Access and
// every query method are single-threaded, the way a cycle-interleaved
// machine serializes its buses. In directory mode the hierarchy
// additionally supports the deferred slice-barrier model: distinct chips'
// Lanes may be driven from distinct goroutines between SliceBarrier
// calls, which is what the chip-parallel simulator engine uses. Query
// methods (counters, occupancy, CheckDirectory) are only meaningful at
// barrier boundaries.
type Hierarchy struct {
	topo topology.Topology  // construction config; RestoreMachine rebuilds it and the restore validates against it
	lat  topology.Latencies // construction config, immutable after NewHierarchy
	l1   []*SetAssoc        // indexed by global core id
	l2   []*SetAssoc        // indexed by chip
	l3   []*SetAssoc        // indexed by chip

	// cpuLane and cpuCore map a CPU id to its chip's lane and its global
	// core index (into l1), so the per-reference path does not divide by
	// the topology's shape. Both are derived from topo at construction.
	cpuLane []*Lane
	cpuCore []int32

	// mode is the effective coherence implementation and lanes holds one
	// access port per chip. In directory mode pres is the machine-wide
	// chip-presence table (written only at barriers); broadcast mode
	// leaves it unused. probesAvoided counts cache probes the directory
	// answered from presence bits instead of scanning, and
	// invalidationsSent the invalidations it issued, at barriers; the
	// lanes carry the access-side share of both and every other counter.
	mode              CoherenceMode
	pres              lineTable
	lanes             []Lane
	probesAvoided     uint64
	invalidationsSent uint64

	// NUMA configuration: nil means uniform memory (the base platform).
	nodes memory.NodeMap // construction config, immutable after NewHierarchy
}

// NewHierarchy builds the cache system for a topology.
func NewHierarchy(topo topology.Topology, lat topology.Latencies, cfg HierarchyConfig) (*Hierarchy, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{topo: topo, lat: lat}
	for core := 0; core < topo.NumCores(); core++ {
		c, err := NewSetAssoc(cfg.L1)
		if err != nil {
			return nil, fmt.Errorf("cache: L1 for core %d: %w", core, err)
		}
		h.l1 = append(h.l1, c)
	}
	for chip := 0; chip < topo.Chips; chip++ {
		l2, err := NewSetAssoc(cfg.L2)
		if err != nil {
			return nil, fmt.Errorf("cache: L2 for chip %d: %w", chip, err)
		}
		// The victim L3 is filled only by L2 cast-outs, and a run leaves
		// most of its sets empty: it is the one sparse cache.
		l3, err := newSetAssoc(cfg.L3, true)
		if err != nil {
			return nil, fmt.Errorf("cache: L3 for chip %d: %w", chip, err)
		}
		h.l2 = append(h.l2, l2)
		h.l3 = append(h.l3, l3)
	}
	h.mode = cfg.Coherence
	if h.mode == CoherenceDirectory && topo.Chips > 64 {
		// The presence masks are one bit per chip.
		h.mode = CoherenceBroadcast
	}
	if h.mode == CoherenceDirectory {
		h.pres.init()
	}
	h.lanes = make([]Lane, topo.Chips)
	for chip := range h.lanes {
		h.lanes[chip].h = h
		h.lanes[chip].chip = chip
	}
	h.cpuLane = make([]*Lane, topo.NumCPUs())
	h.cpuCore = make([]int32, topo.NumCPUs())
	for cpu := range h.cpuLane {
		h.cpuLane[cpu] = &h.lanes[topo.ChipOf(topology.CPUID(cpu))]
		h.cpuCore[cpu] = int32(topo.CoreOf(topology.CPUID(cpu)))
	}
	return h, nil
}

// Topology returns the machine shape the hierarchy was built for.
func (h *Hierarchy) Topology() topology.Topology { return h.topo }

// Latencies returns the latency ladder in use.
func (h *Hierarchy) Latencies() topology.Latencies { return h.lat }

// L1 returns the L1 cache of the given global core (for tests and stats).
func (h *Hierarchy) L1(core int) *SetAssoc { return h.l1[core] }

// L2 returns the L2 cache of the given chip.
func (h *Hierarchy) L2(chip int) *SetAssoc { return h.l2[chip] }

// L3 returns the victim L3 cache of the given chip.
func (h *Hierarchy) L3(chip int) *SetAssoc { return h.l3[chip] }

// InvalidationsSent returns how many line invalidations coherence issued.
func (h *Hierarchy) InvalidationsSent() uint64 {
	s := h.invalidationsSent
	for i := range h.lanes {
		s += h.lanes[i].invalidationsSent
	}
	return s
}

// Upgrades returns how many Shared->Modified write upgrades occurred.
func (h *Hierarchy) Upgrades() uint64 {
	var s uint64
	for i := range h.lanes {
		s += h.lanes[i].upgrades
	}
	return s
}

// Writebacks returns how many dirty lines were written back to memory
// (Modified lines evicted from the last-level cache).
func (h *Hierarchy) Writebacks() uint64 {
	var s uint64
	for i := range h.lanes {
		s += h.lanes[i].writebacks
	}
	return s
}

// SourceCounts returns how many accesses each source satisfied since
// construction, indexed by Source.
func (h *Hierarchy) SourceCounts() [NumSources]uint64 {
	var s [NumSources]uint64
	for i := range h.lanes {
		for src, n := range h.lanes[i].srcCounts {
			s[src] += n
		}
	}
	return s
}

// SourceCycles returns the total latency cycles charged per source since
// construction, indexed by Source.
func (h *Hierarchy) SourceCycles() [NumSources]uint64 {
	var s [NumSources]uint64
	for i := range h.lanes {
		for src, n := range h.lanes[i].srcCycles {
			s[src] += n
		}
	}
	return s
}

// Access performs one data access by the given CPU and returns how it was
// satisfied. Writes invalidate every other cached copy of the line
// (invalidation-based coherence); reads leave remote copies in Shared
// state. The returned latency follows the Figure 1 ladder.
//
// This is the degenerate case of the deferred model: one lane access
// followed by an immediate drain of that lane's mailbox, so every
// coherence effect is visible before the next access in both modes
// (broadcast-mode lanes never queue anything in the first place).
func (h *Hierarchy) Access(cpu topology.CPUID, addr memory.Addr, write bool) AccessResult {
	l := h.cpuLane[cpu]
	res := l.Access(cpu, addr, write)
	if len(l.ops) != 0 {
		h.applyLane(l)
	}
	return res
}

// SetNUMA configures per-chip memory homing: fills whose line is homed on
// another chip's memory cost Latencies.RemoteMemory and are attributed to
// SrcRemoteMemory. Passing nil reverts to uniform memory.
func (h *Hierarchy) SetNUMA(nodes memory.NodeMap) { h.nodes = nodes }

// Release hands the slabs of every cache that holds any, and the presence
// table, back for reuse by the next hierarchy, and drops them: the
// hierarchy must not be accessed, queried or snapshotted afterwards. The
// lanes' counters and mailboxes are not recycled.
func (h *Hierarchy) Release() {
	for _, level := range [][]*SetAssoc{h.l1, h.l2, h.l3} {
		for _, c := range level {
			c.release()
		}
	}
	h.l1, h.l2, h.l3 = nil, nil, nil
	h.pres.release()
}

// FlushAll empties every cache, modelling the cold state after a machine
// reset. Useful between experiment phases.
func (h *Hierarchy) FlushAll() {
	for _, level := range [][]*SetAssoc{h.l1, h.l2, h.l3} {
		for _, c := range level {
			c.release()
		}
	}
	if h.mode == CoherenceDirectory {
		h.pres.clear()
		for chip := range h.lanes {
			h.lanes[chip].ops = h.lanes[chip].ops[:0]
		}
	}
}
