package cache

import (
	"slices"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// blocks returns how many sets the cache holds a block of ways for: every
// set of a built dense cache, the filled sets of a sparse one, none in a
// shell (a parked sparse arena's capacity is not a block).
func (c *SetAssoc) blocks() int { return len(c.tags) / c.ways }

// hierarchyBlocks sums blocks over every cache of the hierarchy.
func hierarchyBlocks(h *Hierarchy) int {
	n := 0
	for _, c := range slices.Concat(h.caches()) {
		n += c.blocks()
	}
	return n
}

// TestVictimL3HoldsWhatItCaches: on the paper's geometry the victim L3 is
// sparse and holds a block only for a set it has filled. A hierarchy
// whose L3 received one victim holds one block of ways there, the other
// chip's L3 holds none, and the dense L2s and L1s above them hold every
// set's block once built.
func TestVictimL3HoldsWhatItCaches(t *testing.T) {
	cfg := Power5Config()
	h := mustHierarchy(t, topology.OpenPower720(), cfg)
	defer h.Release()
	// Eleven lines of one set of the 10-way L2: the first is cast out.
	stride := uint64(cfg.L2.Sets()) * memory.LineSize
	for i := uint64(0); i <= uint64(cfg.L2.Ways); i++ {
		h.Access(0, memory.Addr(i*stride), false)
	}
	l3 := h.L3(0)
	if l3.Stats().Fills != 1 || l3.Occupancy() != 1 {
		t.Fatalf("L3 took %d fills and holds %d lines, want the one victim", l3.Stats().Fills, l3.Occupancy())
	}
	if got := l3.blocks(); got != 1 || len(l3.tags) != cfg.L3.Ways {
		t.Fatalf("an L3 holding one victim holds %d blocks (%d ways), want 1 block of %d", got, len(l3.tags), cfg.L3.Ways)
	}
	if got := h.L3(1).blocks(); got != 0 {
		t.Fatalf("an L3 nothing was cast out to holds %d blocks", got)
	}
	if got := h.L2(0).blocks(); got != cfg.L2.Sets() {
		t.Fatalf("the dense L2 holds %d blocks, want all %d sets", got, cfg.L2.Sets())
	}
	if h.L1(0).sparse || h.L2(0).sparse || !l3.sparse {
		t.Fatal("only the victim L3 is sparse")
	}
}

// castOutStream is FuzzHierarchyAccess input (CPU, line, flags per access)
// that reaches the victim L3 on SmallConfig: CPU 0 writes eight lines of
// one L2 set — its 32 sets put lines 32 apart in one set — so four are
// cast out to chip 0's L3; CPU 4, on chip 1, then reads two of them from
// that L3 and CPU 0 takes one back from its own.
func castOutStream() []byte {
	var b []byte
	for line := 0; line < 256; line += 32 {
		b = append(b, 0, byte(line), 1)
	}
	return append(b, 4, 0, 0, 4, 32, 0, 0, 64, 0)
}

// TestCastOutStreamReachesL3 keeps castOutStream's promise, so the fuzz
// seed built from it keeps steering the fuzzer into sparse L3 blocks.
func TestCastOutStreamReachesL3(t *testing.T) {
	topo := topology.OpenPower720()
	if topo.ChipOf(4) != 1 || topo.ChipOf(0) != 0 {
		t.Fatal("castOutStream assumes CPU 4 sits on chip 1")
	}
	h := mustHierarchy(t, topo, SmallConfig())
	defer h.Release()
	var seen [NumSources]int
	data := castOutStream()
	for i := 0; i+3 <= len(data); i += 3 {
		res := h.Access(topology.CPUID(data[i]), memory.Addr(uint64(data[i+1])*memory.LineSize), data[i+2]&1 != 0)
		seen[res.Source]++
	}
	if l3 := h.L3(0); l3.Stats().Fills < 4 || l3.blocks() == 0 {
		t.Fatalf("chip 0's L3 took %d fills into %d blocks, want the four cast-outs", l3.Stats().Fills, l3.blocks())
	}
	if seen[SrcRemoteL3] != 2 || seen[SrcL3] != 1 {
		t.Fatalf("sources %v: want two remote-L3 and one local-L3 hit", seen)
	}
	if err := h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseArenaNeverOutgrowsDense: the arena doubles as sets fill, but
// a sparse cache with every set filled holds exactly the ways a dense one
// does — on a set count that is not a power of two of the first arena.
func TestSparseArenaNeverOutgrowsDense(t *testing.T) {
	cfg := Config{SizeBytes: 100 * 3 * memory.LineSize, Ways: 3}
	c := shellCache(t, cfg, true)
	for set := 0; set < c.nsets; set++ {
		c.Insert(memory.Addr(set)*memory.LineSize, Exclusive)
		if got := cap(c.tags); got > c.nsets*c.ways || c.blocks() != set+1 {
			t.Fatalf("after %d sets: %d blocks in an arena of %d ways, dense holds %d", set+1, c.blocks(), got, c.nsets*c.ways)
		}
	}
	if cap(c.tags) != c.Capacity() || cap(c.states) != c.Capacity() || cap(c.lru) != c.Capacity() {
		t.Fatalf("a full sparse arena holds %d/%d/%d ways, dense %d", cap(c.tags), cap(c.states), cap(c.lru), c.Capacity())
	}
	releaseChecked(t, c)
}
