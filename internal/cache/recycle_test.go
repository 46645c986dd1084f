package cache

import (
	"math/rand"
	"slices"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/topology"
)

// freshCache builds a cache that never came out of the slab pool: the
// oracle every recycled cache is compared with.
func freshCache(t testing.TB, cfg Config) *SetAssoc {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return newSetAssoc(cfg)
}

// requireBuiltImage fails unless every word of the cache equals a freshly
// built cache of the same geometry, and the tag/state invariant holds.
func requireBuiltImage(t *testing.T, c *SetAssoc) {
	t.Helper()
	want := freshCache(t, c.cfg)
	for i := range c.tags {
		if (c.tags[i] == invalidTag) != (c.states[i] == Invalid) {
			t.Fatalf("way %d: tag %#x with state %v breaks tags==invalidTag <=> states==Invalid", i, uint64(c.tags[i]), c.states[i])
		}
	}
	if !slices.Equal(c.tags, want.tags) || !slices.Equal(c.states, want.states) || !slices.Equal(c.lru, want.lru) {
		t.Fatalf("%+v: released slabs differ from a freshly built cache", c.cfg)
	}
	if !slices.Equal(c.touched, want.touched) {
		t.Fatalf("%+v: released touched bitmap %x, want all clear", c.cfg, c.touched)
	}
	if c.stamp != 0 || c.stats != (Stats{}) {
		t.Fatalf("%+v: released stamp %d stats %+v, want zero", c.cfg, c.stamp, c.stats)
	}
}

// churn drives n seeded random operations of every kind through the
// cache, over three times its capacity in lines so sets fill and evict.
func churn(c *SetAssoc, r *rand.Rand, n int) {
	span := uint64(3 * c.Capacity())
	for i := 0; i < n; i++ {
		l := memory.Addr(uint64(r.Int63n(int64(span))) * memory.LineSize)
		switch r.Intn(8) {
		case 0, 1, 2:
			c.Insert(l, State(1+r.Intn(3)))
		case 3:
			c.Lookup(l)
		case 4:
			c.Peek(l)
		case 5:
			c.SetState(l, State(1+r.Intn(3)))
		case 6:
			c.Downgrade(l)
		case 7:
			c.Invalidate(l)
		}
	}
}

// TestReleasedEqualsFresh is the oracle of the slab pool: whatever a
// cache went through — every operation, evictions, invalidations that
// leave stale LRU stamps behind, a restore over dirty slabs — release
// returns it word for word to what the allocating constructor builds.
// Geometries: a power-of-two set count, two that are not (one spanning
// several bitmap words with a partial last word), and the one-set cache.
func TestReleasedEqualsFresh(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 128 * 2 * memory.LineSize, Ways: 2},
		{SizeBytes: 100 * 3 * memory.LineSize, Ways: 3},
		{SizeBytes: 1638 * 10 * memory.LineSize, Ways: 10},
		{SizeBytes: 4 * memory.LineSize, Ways: 4},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			c, d := freshCache(t, cfg), freshCache(t, cfg)
			churn(c, r, 200*int(seed)) // few operations on the low seeds: most sets stay untouched
			churn(d, r, 5000)

			// Restore c's state over the dirty d, then keep using d.
			e := &snapbin.Enc{}
			saveCache(e, c)
			if err := restoreCache(snapbin.NewDec(e.Bytes()), d, "d"); err != nil {
				t.Fatal(err)
			}
			re := &snapbin.Enc{}
			saveCache(re, d)
			if string(re.Bytes()) != string(e.Bytes()) {
				t.Fatalf("%+v seed %d: restore did not reproduce the saved cache", cfg, seed)
			}
			churn(d, r, 300)

			c.release()
			requireBuiltImage(t, c)
			d.release()
			requireBuiltImage(t, d)
		}
	}
}

// TestReleasedHierarchyIsReused: the slabs a hierarchy releases are the
// ones the next hierarchy of that geometry is built on, and they replay
// an access stream exactly as never-used slabs do.
func TestReleasedHierarchyIsReused(t *testing.T) {
	topo, lat := topology.OpenPower720(), topology.DefaultLatencies()
	cfg := SmallConfig()
	cfg.L3.Ways = 5 // a geometry no other test parks slabs of
	h, err := NewHierarchy(topo, lat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		h.Access(topology.CPUID(r.Intn(topo.NumCPUs())), memory.Addr(r.Intn(4096))*memory.LineSize, r.Intn(3) == 0)
	}
	l1, l2, l3 := h.caches()
	old := map[*SetAssoc]bool{}
	for _, c := range slices.Concat(l1, l2, l3) {
		old[c] = true
	}
	h.Release()
	if l1, l2, l3 := h.caches(); l1 != nil || l2 != nil || l3 != nil {
		t.Fatal("Release kept references to the slabs it gave away")
	}
	h.Release() // idempotent

	// The broadcast hierarchy is built first and so gets the parked slabs.
	ref, next, _ := triplet(t, topo, lat, cfg)
	reused := 0
	l1, l2, l3 = next.caches()
	for _, c := range slices.Concat(l1, l2, l3) {
		if old[c] {
			reused++
		}
	}
	// sync.Pool may drop an item (it does so at random under the race
	// detector), so demand reuse, not reuse of every slab.
	if reused == 0 {
		t.Fatalf("none of the %d released caches was reused by the next hierarchy", len(old))
	}
	r = rand.New(rand.NewSource(10))
	for i := 0; i < 20000; i++ {
		cpu, addr, write := topology.CPUID(r.Intn(topo.NumCPUs())), memory.Addr(r.Intn(4096))*memory.LineSize, r.Intn(3) == 0
		if want, got := ref.Access(cpu, addr, write), next.Access(cpu, addr, write); want != got {
			t.Fatalf("op %d on recycled slabs: %+v, reference %+v", i, got, want)
		}
	}
	compareCounters(t, 20000, ref, next)
	sameCaches(t, ref, next)
}
