// Package topology describes the shape of an SMP-CMP-SMT multiprocessor:
// how many chips the machine has, how many cores live on each chip, and how
// many simultaneous-multithreading (SMT) hardware contexts each core exposes.
//
// The package also carries the memory-hierarchy latency ladder of Figure 1
// of the paper (IBM OpenPower 720): on-core sharing through the L1 costs a
// couple of cycles, on-chip sharing through the L2 costs on the order of
// ten cycles, and any cross-chip access costs at least 120 cycles. That
// non-uniform data-sharing overhead is the entire reason sharing-aware
// scheduling pays off, so everything else in this repository is built on
// top of these types.
package topology

import "fmt"

// CPUID identifies a single hardware context (a "logical CPU" in OS terms).
// IDs are dense in [0, Topology.NumCPUs()) and are laid out
// chip-major, then core, then SMT context:
//
//	id = (chip*CoresPerChip + core)*ContextsPerCore + context
type CPUID int

// Topology is the static shape of the machine.
type Topology struct {
	// Chips is the number of processor chips (separate sockets).
	Chips int
	// CoresPerChip is the number of CPU cores on each chip.
	CoresPerChip int
	// ContextsPerCore is the number of SMT hardware contexts per core.
	ContextsPerCore int
}

// Validate reports whether the topology describes a usable machine.
func (t Topology) Validate() error {
	if t.Chips <= 0 {
		return fmt.Errorf("topology: Chips must be positive, got %d", t.Chips)
	}
	if t.CoresPerChip <= 0 {
		return fmt.Errorf("topology: CoresPerChip must be positive, got %d", t.CoresPerChip)
	}
	if t.ContextsPerCore <= 0 {
		return fmt.Errorf("topology: ContextsPerCore must be positive, got %d", t.ContextsPerCore)
	}
	return nil
}

// NumCPUs returns the total number of hardware contexts in the machine.
func (t Topology) NumCPUs() int {
	return t.Chips * t.CoresPerChip * t.ContextsPerCore
}

// NumCores returns the total number of cores in the machine.
func (t Topology) NumCores() int {
	return t.Chips * t.CoresPerChip
}

// ChipOf returns the chip index [0, Chips) that hosts the given CPU.
func (t Topology) ChipOf(cpu CPUID) int {
	return int(cpu) / (t.CoresPerChip * t.ContextsPerCore)
}

// CoreOf returns the global core index [0, NumCores()) that hosts the CPU.
func (t Topology) CoreOf(cpu CPUID) int {
	return int(cpu) / t.ContextsPerCore
}

// ContextOf returns the SMT context index within the CPU's core.
func (t Topology) ContextOf(cpu CPUID) int {
	return int(cpu) % t.ContextsPerCore
}

// CPUsOfChip returns the CPU ids that live on the given chip, in order.
func (t Topology) CPUsOfChip(chip int) []CPUID {
	per := t.CoresPerChip * t.ContextsPerCore
	cpus := make([]CPUID, 0, per)
	for i := 0; i < per; i++ {
		cpus = append(cpus, CPUID(chip*per+i))
	}
	return cpus
}

// CPUsOfCore returns the CPU ids (SMT contexts) of the given global core.
func (t Topology) CPUsOfCore(core int) []CPUID {
	cpus := make([]CPUID, 0, t.ContextsPerCore)
	for i := 0; i < t.ContextsPerCore; i++ {
		cpus = append(cpus, CPUID(core*t.ContextsPerCore+i))
	}
	return cpus
}

// SameChip reports whether two CPUs share a chip (and therefore an L2).
func (t Topology) SameChip(a, b CPUID) bool { return t.ChipOf(a) == t.ChipOf(b) }

// SameCore reports whether two CPUs share a core (and therefore an L1).
func (t Topology) SameCore(a, b CPUID) bool { return t.CoreOf(a) == t.CoreOf(b) }

// String returns a compact "chips x cores x contexts" description.
func (t Topology) String() string {
	return fmt.Sprintf("%dx%dx%d SMPxCMPxSMT (%d CPUs)",
		t.Chips, t.CoresPerChip, t.ContextsPerCore, t.NumCPUs())
}

// Latencies is the cost, in CPU cycles, of satisfying a data access from
// each level of the memory hierarchy. The defaults mirror Figure 1: the
// crucial property is the >= 120-cycle cliff for anything that crosses a
// chip boundary.
type Latencies struct {
	L1Hit    uint64 // satisfied by the core's own L1 data cache
	L2Hit    uint64 // satisfied by the chip-local L2
	L3Hit    uint64 // satisfied by the chip-local (off-chip victim) L3
	RemoteL2 uint64 // satisfied by another chip's L2 (cross-chip transfer)
	RemoteL3 uint64 // satisfied by another chip's L3
	Memory   uint64 // satisfied by main memory attached to the local chip
	// RemoteMemory is the cost of a fill from another chip's memory
	// controller (NUMA). Zero disables the distinction: all memory is
	// charged the local Memory latency, which matches the paper's base
	// platform view (Figure 1 shows one memory latency).
	RemoteMemory uint64
}

// Validate reports whether the latency ladder is monotone in the way the
// hierarchy requires (each level at least as expensive as the previous
// local level, and every remote source at least as expensive as local L3).
func (l Latencies) Validate() error {
	if l.L1Hit == 0 {
		return fmt.Errorf("topology: L1Hit latency must be nonzero")
	}
	if l.L2Hit < l.L1Hit || l.L3Hit < l.L2Hit {
		return fmt.Errorf("topology: local latencies must be non-decreasing: %+v", l)
	}
	if l.RemoteL2 < l.L3Hit || l.RemoteL3 < l.RemoteL2 {
		return fmt.Errorf("topology: remote latencies must sit above local L3: %+v", l)
	}
	if l.Memory < l.RemoteL3 {
		return fmt.Errorf("topology: memory latency must be the most expensive: %+v", l)
	}
	if l.RemoteMemory != 0 && l.RemoteMemory < l.Memory {
		return fmt.Errorf("topology: remote memory must cost at least local memory: %+v", l)
	}
	return nil
}

// OpenPower720 is the evaluation platform of the paper (Table 1): two
// Power5 chips, two cores per chip, two SMT contexts per core.
func OpenPower720() Topology {
	return Topology{Chips: 2, CoresPerChip: 2, ContextsPerCore: 2}
}

// Power5_32Way is the larger machine of Section 7.4: eight Power5 chips
// (32 hardware contexts).
func Power5_32Way() Topology {
	return Topology{Chips: 8, CoresPerChip: 2, ContextsPerCore: 2}
}

// NiagaraLike is a single-chip many-context machine in the spirit of the
// Sun Niagara the paper's introduction cites ("currently has 32 hardware
// contexts"): 8 cores of 4 contexts on one chip. With only one chip there
// is no remote cache to reach, so sharing-aware placement has nothing to
// improve — a useful degenerate case.
func NiagaraLike() Topology {
	return Topology{Chips: 1, CoresPerChip: 8, ContextsPerCore: 4}
}

// DefaultLatencies is the Figure 1 latency ladder, in cycles, for the
// OpenPower 720. The figure gives 1-2 cycles for L1, 10-20 for the on-chip
// L2, and "at least 120 cycles" for any cross-chip sharing; local L3 and
// memory values follow published Power5 measurements.
func DefaultLatencies() Latencies {
	return Latencies{
		L1Hit:    2,
		L2Hit:    14,
		L3Hit:    90,
		RemoteL2: 120,
		RemoteL3: 160,
		Memory:   280,
	}
}

// NUMALatencies is DefaultLatencies plus a distinct remote-memory cost,
// for the Section 8 NUMA extension.
func NUMALatencies() Latencies {
	lat := DefaultLatencies()
	lat.RemoteMemory = 420
	return lat
}
