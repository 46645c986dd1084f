package cache

import (
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

func benchHierarchy(b *testing.B) *Hierarchy {
	b.Helper()
	h, err := NewHierarchy(topology.OpenPower720(), topology.DefaultLatencies(), Power5Config())
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func BenchmarkAccessL1Hit(b *testing.B) {
	h := benchHierarchy(b)
	addr := memory.Addr(0x10000)
	h.Access(0, addr, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, addr, false)
	}
}

func BenchmarkAccessL2Hit(b *testing.B) {
	h := benchHierarchy(b)
	addrs := make([]memory.Addr, 1024)
	for i := range addrs {
		addrs[i] = memory.Addr(0x100000 + i*memory.LineSize)
		h.Access(0, addrs[i], false) // fill L2 via core 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate cores on one chip so L1 misses but L2 hits.
		h.Access(topology.CPUID(2*(i%2)), addrs[i%len(addrs)], false)
	}
}

func BenchmarkAccessCrossChipPingPong(b *testing.B) {
	h := benchHierarchy(b)
	addr := memory.Addr(0x200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu := topology.CPUID(0)
		if i%2 == 0 {
			cpu = 4
		}
		h.Access(cpu, addr, true)
	}
}

func BenchmarkAccessMemoryStream(b *testing.B) {
	h := benchHierarchy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, memory.Addr(uint64(i)*memory.LineSize), false)
	}
}

// BenchmarkHierarchyAccess is the canonical hot-path number: a
// sharing-heavy mixed stream (the coherence differential workload) through
// the default directory hierarchy on the 32-way machine. The allocation
// column must read 0 — TestAccessZeroAlloc enforces the same property as a
// test.
func BenchmarkHierarchyAccess(b *testing.B) {
	topo := topology.Power5_32Way()
	h, err := NewHierarchy(topo, topology.DefaultLatencies(), SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	ops := coherenceOps(topo, 1<<16)
	for _, op := range ops {
		h.Access(op.cpu, op.addr, op.write) // warm: size tables and mailboxes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i&(1<<16-1)]
		h.Access(op.cpu, op.addr, op.write)
	}
}

// coherenceOps pre-generates a deterministic sharing-heavy access stream:
// every CPU touches a working set larger than the caches, half the
// accesses land in a shared region and a third of those are writes, so
// the stream is dominated by cross-chip snoops, invalidations and
// inclusion purges — the operations whose cost the coherence
// implementation decides.
type coherenceOp struct {
	cpu   topology.CPUID
	addr  memory.Addr
	write bool
}

func coherenceOps(topo topology.Topology, n int) []coherenceOp {
	w := newDiffWorkload(topo, 2*topo.NumCPUs(), 96, 1)
	ops := make([]coherenceOp, n)
	for i := range ops {
		cpu, addr, write := w.step()
		ops[i] = coherenceOp{cpu: cpu, addr: addr, write: write}
	}
	return ops
}

func benchCoherence(b *testing.B, topo topology.Topology, mode CoherenceMode) {
	// Power5 associativities (Table 1: 4-way L1, 10-way L2, 12-way L3) at
	// test-scale sizes, so broadcast pays realistic set-scan costs while
	// the working set still forces misses.
	cfg := HierarchyConfig{
		L1:        Config{SizeBytes: 4 << 10, Ways: 4},
		L2:        Config{SizeBytes: 40 << 10, Ways: 10},
		L3:        Config{SizeBytes: 192 << 10, Ways: 12},
		Coherence: mode,
	}
	h, err := NewHierarchy(topo, topology.DefaultLatencies(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	ops := coherenceOps(topo, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i&(1<<16-1)]
		h.Access(op.cpu, op.addr, op.write)
	}
}

// The broadcast-vs-directory pairs below are for `go test -bench` only;
// the guarded number is tcbench's cache.broadcast_refs_per_s against
// sim_refs_per_s. Both modes run the same walk (Lane.access) and differ
// only in how they answer a cross-chip snoop and when they apply an
// invalidation, so the pairs measure the presence table against the
// L2/L3 scans it replaces: the table wins on 8 chips and loses on 2,
// where there is one other chip to scan (DESIGN.md §5).
func BenchmarkCoherenceBroadcast32Way(b *testing.B) {
	benchCoherence(b, topology.Power5_32Way(), CoherenceBroadcast)
}

func BenchmarkCoherenceDirectory32Way(b *testing.B) {
	benchCoherence(b, topology.Power5_32Way(), CoherenceDirectory)
}

func BenchmarkCoherenceBroadcastOpen720(b *testing.B) {
	benchCoherence(b, topology.OpenPower720(), CoherenceBroadcast)
}

func BenchmarkCoherenceDirectoryOpen720(b *testing.B) {
	benchCoherence(b, topology.OpenPower720(), CoherenceDirectory)
}

func BenchmarkSetAssocLookup(b *testing.B) {
	c, err := NewSetAssoc(Power5Config().L2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		c.Insert(memory.Addr(i*memory.LineSize), Shared)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(memory.Addr((i % 4096) * memory.LineSize))
	}
}
