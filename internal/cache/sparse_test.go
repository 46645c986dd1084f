package cache

import (
	"slices"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// blocks returns how many sets the cache holds a small and a full block
// of ways for: every set of a built dense cache is full, a sparse cache
// counts its directory, a shell holds none (a parked sparse arena's
// capacity is not a block).
func (c *SetAssoc) blocks() (small, full int) {
	if c.setDir == nil {
		return 0, len(c.tags) / c.ways
	}
	for _, v := range c.setDir {
		switch {
		case v < 0:
			small++
		case v > 0:
			full++
		}
	}
	return small, full
}

// hierarchyBlocks sums blocks over every cache of the hierarchy, a full
// block as two, so the sum rises at every block claimed and every set
// promoted until the hierarchy is released.
func hierarchyBlocks(h *Hierarchy) int {
	n := 0
	for _, c := range slices.Concat(h.caches()) {
		small, full := c.blocks()
		n += small + 2*full
	}
	return n
}

// wideL3Config is SmallConfig with a 12-way victim L3 of eight sets, so a
// stream over a few hundred lines starts L3 sets in small blocks,
// promotes them and evicts from the promoted blocks.
func wideL3Config() HierarchyConfig {
	cfg := SmallConfig()
	cfg.L3 = Config{SizeBytes: 8 * 12 * memory.LineSize, Ways: 12}
	return cfg
}

// TestVictimL3HoldsWhatItCaches: on the paper's geometry the victim L3 is
// sparse and holds a block only for a set it has filled, small until the
// set's fifth line. A hierarchy whose L3 received one victim holds one
// small block there and the other chip's L3 none, while the dense L2s and
// L1s above them hold every set's block once built; a fifth victim of the
// set moves it to a full block, leaving the small one empty in place, and
// the next set to fill takes a new small block.
func TestVictimL3HoldsWhatItCaches(t *testing.T) {
	cfg := Power5Config()
	h := mustHierarchy(t, topology.OpenPower720(), cfg)
	defer h.Release()
	// Lines this far apart share an L2 set and an L3 set; the first
	// eleven make the 10-way L2 cast out the first.
	stride := uint64(cfg.L2.Sets() * cfg.L3.Sets() / gcd(cfg.L2.Sets(), cfg.L3.Sets()))
	line := func(set, i uint64) memory.Addr { return memory.Addr((set + i*stride) * memory.LineSize) }
	for i := uint64(0); i <= uint64(cfg.L2.Ways); i++ {
		h.Access(0, line(0, i), false)
	}
	l3 := h.L3(0)
	if l3.Stats().Fills != 1 || l3.Occupancy() != 1 {
		t.Fatalf("L3 took %d fills and holds %d lines, want the one victim", l3.Stats().Fills, l3.Occupancy())
	}
	if small, full := l3.blocks(); small != 1 || full != 0 || len(l3.tags) != smallWays {
		t.Fatalf("an L3 holding one victim holds %d small and %d full blocks (%d ways), want 1 block of %d", small, full, len(l3.tags), smallWays)
	}
	if small, full := h.L3(1).blocks(); small+full != 0 {
		t.Fatalf("an L3 nothing was cast out to holds %d blocks", small+full)
	}
	if _, full := h.L2(0).blocks(); full != cfg.L2.Sets() {
		t.Fatalf("the dense L2 holds %d blocks, want all %d sets", full, cfg.L2.Sets())
	}
	if h.L1(0).sparse || h.L2(0).sparse || !l3.sparse {
		t.Fatal("only the victim L3 is sparse")
	}

	// Four more victims of the set: the fifth line promotes it.
	for i := uint64(cfg.L2.Ways) + 1; i <= uint64(cfg.L2.Ways)+4; i++ {
		h.Access(0, line(0, i), false)
	}
	if l3.Stats().Fills != 5 || l3.Occupancy() != 5 {
		t.Fatalf("L3 took %d fills and holds %d lines, want five victims", l3.Stats().Fills, l3.Occupancy())
	}
	if small, full := l3.blocks(); small != 0 || full != 1 || len(l3.tags) != smallWays+cfg.L3.Ways {
		t.Fatalf("five victims of one set: %d small and %d full blocks in %d ways, want one full block after the emptied small one", small, full, len(l3.tags))
	}
	if l3.setDir[0] != smallWays+1 {
		t.Fatalf("set 0's directory entry %d: want the full block at %d", l3.setDir[0], smallWays)
	}
	for i := 0; i < smallWays; i++ {
		if l3.tags[i] != invalidTag || l3.states[i] != Invalid || l3.lru[i] != 0 {
			t.Fatalf("way %d of the small block set 0 left is not the built image", i)
		}
	}
	for i := uint64(0); i < 5; i++ {
		if got := l3.tags[smallWays+int(i)]; got != line(0, i) {
			t.Fatalf("way %d of the promoted set holds %#x, want victim %d (%#x), as in the dense layout", i, uint64(got), i, uint64(line(0, i)))
		}
	}

	// A victim of a new set takes a new small block after the full one.
	for i := uint64(0); i <= uint64(cfg.L2.Ways); i++ {
		h.Access(0, line(1, i), false)
	}
	if small, full := l3.blocks(); small != 1 || full != 1 || len(l3.tags) != 2*smallWays+cfg.L3.Ways {
		t.Fatalf("a new set after a promotion: %d small and %d full blocks in %d ways, want a new small block", small, full, len(l3.tags))
	}
	if want := -int32(smallWays + cfg.L3.Ways + 1); l3.setDir[1] != want {
		t.Fatalf("set 1's directory entry %d, want the small block at %d (%d)", l3.setDir[1], smallWays+cfg.L3.Ways, want)
	}
	if err := h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
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
	l3 := h.L3(0)
	if small, full := l3.blocks(); l3.Stats().Fills < 4 || small+full == 0 {
		t.Fatalf("chip 0's L3 took %d fills into %d blocks, want the four cast-outs", l3.Stats().Fills, small+full)
	}
	if seen[SrcRemoteL3] != 2 || seen[SrcL3] != 1 {
		t.Fatalf("sources %v: want two remote-L3 and one local-L3 hit", seen)
	}
	if err := h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// promoteStream is FuzzHierarchyAccess input that promotes a set of
// wideL3Config's L3 and then evicts from the full block: CPU 0 writes the
// 32 lines that map to L3 set 0, eight to each of L2 sets 0, 8, 16 and 24,
// so each of those sets casts four out — sixteen victims for one 12-way
// set, whose fifth promotes it and whose last four evict.
func promoteStream() []byte {
	var b []byte
	for set := 0; set < 32; set += 8 {
		for line := set; line < 256; line += 32 {
			b = append(b, 0, byte(line), 1)
		}
	}
	return b
}

// TestPromoteStreamReachesFullBlock keeps promoteStream's promise, so the
// fuzz seed built from it keeps steering the fuzzer through promotions
// and evictions from promoted blocks.
func TestPromoteStreamReachesFullBlock(t *testing.T) {
	cfg := wideL3Config()
	if cfg.L3.Ways <= smallWays || 32%cfg.L3.Sets() != 0 || cfg.L2.Sets() != 32 {
		t.Fatal("promoteStream assumes 32 L2 sets and an L3 wider than a small block whose set count divides 32")
	}
	h := mustHierarchy(t, topology.OpenPower720(), cfg)
	defer h.Release()
	data := promoteStream()
	for i := 0; i+3 <= len(data); i += 3 {
		h.Access(topology.CPUID(data[i]), memory.Addr(uint64(data[i+1])*memory.LineSize), data[i+2]&1 != 0)
	}
	l3 := h.L3(0)
	if st := l3.Stats(); st.Fills != 16 || st.Evictions != 4 {
		t.Fatalf("chip 0's L3 took %d fills and %d evictions, want 16 and 4", st.Fills, st.Evictions)
	}
	if small, full := l3.blocks(); small != 0 || full != 1 || l3.setDir[0] <= 0 {
		t.Fatalf("chip 0's L3 holds %d small and %d full blocks: want set 0 promoted", small, full)
	}
	if err := h.CheckDirectory(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseArenaNeverOutgrowsDense: the arena doubles as sets fill, on a
// set count that is not a power of two of the first arena, but never
// past a full block per set plus a small block per set — which a cache
// reaches exactly when every set takes a line before any is promoted,
// and then fills. A cache of at most smallWays ways gives every set a full
// block at once, and holds exactly what a dense one does.
func TestSparseArenaNeverOutgrowsDense(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 100 * 6 * memory.LineSize, Ways: 6},
		{SizeBytes: 100 * 3 * memory.LineSize, Ways: 3},
	} {
		c := shellCache(t, cfg, true)
		bound := c.Capacity()
		if c.ways > smallWays {
			bound += c.nsets * smallWays
		}
		for i := 0; i < c.Capacity(); i++ {
			c.Insert(memory.Addr(i)*memory.LineSize, Exclusive) // set i%nsets, way i/nsets
			if got := cap(c.tags); got > bound || cap(c.states) != got || cap(c.lru) != got {
				t.Fatalf("%+v after %d lines: an arena of %d/%d/%d ways, bound %d", cfg, i+1, got, cap(c.states), cap(c.lru), bound)
			}
		}
		if small, full := c.blocks(); small != 0 || full != c.nsets {
			t.Fatalf("%+v filled: %d small and %d full blocks, want %d full", cfg, small, full, c.nsets)
		}
		if len(c.tags) != bound || cap(c.tags) != bound || c.Occupancy() != c.Capacity() {
			t.Fatalf("%+v filled: %d of %d ways in use for %d lines, want the bound %d", cfg, len(c.tags), cap(c.tags), c.Occupancy(), bound)
		}
		releaseChecked(t, c)
	}
}
