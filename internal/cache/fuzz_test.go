package cache

import (
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// FuzzHierarchyAccess decodes arbitrary bytes into a cache operation
// sequence — 3 bytes per access: CPU selector, line selector, flag byte
// (bit 0: write) — and replays it through the pre-merge broadcast
// reference walk and the unified walk in broadcast and directory mode, in
// lockstep, and then a fourth time through a directory hierarchy that
// builds on the slabs the second and third just released (and every
// earlier input dirtied). Whatever the sequence, none of them may panic,
// after every access the result and the coherence and attribution
// counters must match, the cache contents must be identical, and both
// unified hierarchies must pass CheckDirectory against a ground-truth scan
// of them (checked as the sequence runs and at its end). Every input runs
// on SmallConfig and again on wideL3Config, whose eight 12-way L3 sets
// take five and more of the 256 lines an input can name, so sets start
// in small blocks, are promoted and evict from their full blocks.
func FuzzHierarchyAccess(f *testing.F) {
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{1, 0, 0, 5, 0, 1, 1, 0, 0})
	// A write ping-pong across chips followed by reads.
	f.Add([]byte{0, 9, 1, 4, 9, 1, 0, 9, 0, 4, 9, 0, 2, 9, 1})
	// Dense line reuse to force evictions and victim-L3 spills.
	seed := make([]byte, 0, 96)
	for i := 0; i < 32; i++ {
		seed = append(seed, byte(i), byte(i*7), byte(i%2))
	}
	f.Add(seed)
	// L2 cast-outs into a victim L3, read back locally and remotely.
	f.Add(castOutStream())
	// Sixteen cast-outs into one wide L3 set: promoted, then evicting.
	f.Add(promoteStream())

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range []HierarchyConfig{SmallConfig(), wideL3Config()} {
			fuzzHierarchyAccess(t, cfg, data)
		}
	})
}

func fuzzHierarchyAccess(t *testing.T, cfg HierarchyConfig, data []byte) {
	topo := topology.OpenPower720()
	ref, bc, dir := triplet(t, topo, topology.DefaultLatencies(), cfg)
	ncpu := topo.NumCPUs()
	decode := func(i int) (topology.CPUID, memory.Addr, bool) {
		return topology.CPUID(int(data[i]) % ncpu), memory.Addr(uint64(data[i+1]) * memory.LineSize), data[i+2]&1 != 0
	}
	var want []AccessResult
	built := 0
	for i := 0; i+3 <= len(data); i += 3 {
		cpu, addr, write := decode(i)
		rr := ref.Access(cpu, addr, write)
		want = append(want, rr)
		rb := bc.Access(cpu, addr, write)
		rd := dir.Access(cpu, addr, write)
		if rr != rb || rr != rd {
			t.Fatalf("op %d: cpu %d line %#x write=%v:\nreference %+v\nbroadcast %+v\ndirectory %+v",
				i/3, cpu, uint64(addr), write, rr, rb, rd)
		}
		// The reference's caches are built at construction and its L3s
		// are dense; the other two build at their first Insert, give
		// an L3 set its block at its first fill and a full block at its
		// fifth line: no step may tell them apart. Counters are
		// compared after every access; the O(capacity) image and
		// directory checks after every access that built a cache,
		// handed out a block or promoted a set — the only steps at
		// which the layouts differ in structure — and every sixteenth,
		// so the fuzzer keeps its throughput.
		// TestLazyHierarchyEqualsEager runs them all at every step.
		compareCounters(t, i/3, ref, bc)
		compareCounters(t, i/3, ref, dir)
		if n := hierarchyBlocks(bc) + hierarchyBlocks(dir); n != built || i/3%16 == 0 {
			built = n
			sameCaches(t, ref, bc)
			sameCaches(t, ref, dir)
			for _, h := range []*Hierarchy{bc, dir} {
				if err := h.CheckDirectory(); err != nil {
					t.Fatalf("op %d: %v: %v", i/3, h.Coherence(), err)
				}
			}
		}
	}
	for _, h := range []*Hierarchy{bc, dir} {
		sameCaches(t, ref, h)
		if err := h.CheckDirectory(); err != nil {
			t.Fatalf("%v: %v", h.Coherence(), err)
		}
	}

	bc.Release()
	dir.Release()
	cfg.Coherence = CoherenceDirectory
	rec, err := NewHierarchy(topo, topology.DefaultLatencies(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+3 <= len(data); i += 3 {
		cpu, addr, write := decode(i)
		if got := rec.Access(cpu, addr, write); got != want[i/3] {
			t.Fatalf("op %d on recycled slabs: cpu %d line %#x write=%v:\nreference %+v\nrecycled  %+v",
				i/3, cpu, uint64(addr), write, want[i/3], got)
		}
	}
	compareCounters(t, len(data)/3, ref, rec)
	sameCaches(t, ref, rec)
	if err := rec.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
	rec.Release()
}
