package cache

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/topology"
)

// freshCache builds a cache of the layout the eager way: slabs allocated
// at construction and never out of the pool, which is how every cache was
// built before the first Insert did it. Its dense form is the oracle
// lazy, recycled and sparse caches are compared with.
func freshCache(t testing.TB, cfg Config, sparse bool) *SetAssoc {
	t.Helper()
	c := shellCache(t, cfg, sparse)
	c.slabs = newSlabs(c.nsets, c.ways, sparse)
	return c
}

// shellCache is a cache of the layout that holds no slabs, whatever the
// pool had parked: its first Insert builds.
func shellCache(t testing.TB, cfg Config, sparse bool) *SetAssoc {
	t.Helper()
	c, err := newSetAssoc(cfg, sparse)
	if err != nil {
		t.Fatal(err)
	}
	c.release()
	return c
}

// layouts names the two slab layouts for the tests that run over both.
var layouts = []struct {
	name   string
	sparse bool
}{{"dense", false}, {"sparse", true}}

// hierarchyOf is NewHierarchy with every cache remade, in its own layout,
// by one of the constructors above: all shells, or all built at
// construction.
func hierarchyOf(t testing.TB, cache func(testing.TB, Config, bool) *SetAssoc, topo topology.Topology, lat topology.Latencies, cfg HierarchyConfig) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(topo, lat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range [][]*SetAssoc{h.l1, h.l2, h.l3} {
		for i, c := range level {
			c.release()
			level[i] = cache(t, c.cfg, c.sparse)
		}
	}
	return h
}

// releaseChecked releases the cache and fails unless it is an empty shell
// afterwards and the slabs it parked, if it had any, equal freshly
// allocated ones word for word. A sparse cache parks an empty arena of
// the capacity it grew to, whose old words claim rewrites as it hands
// each way out again, so its image is its (empty) arena and its
// directory.
func releaseChecked(t *testing.T, c *SetAssoc) {
	t.Helper()
	parked := c.slabs
	c.release()
	if c.sparse {
		parked.tags, parked.states, parked.lru = parked.tags[:0], parked.states[:0], parked.lru[:0]
	}
	if c.Backing() != nil || c.stamp != 0 || c.stats != (Stats{}) {
		t.Fatalf("%+v: released cache keeps slabs %p stamp %d stats %+v", c.cfg, c.Backing(), c.stamp, c.stats)
	}
	if parked.tags == nil {
		return
	}
	for i := range parked.tags {
		if (parked.tags[i] == invalidTag) != (parked.states[i] == Invalid) {
			t.Fatalf("way %d: tag %#x with state %v breaks tags==invalidTag <=> states==Invalid", i, uint64(parked.tags[i]), parked.states[i])
		}
	}
	want := newSlabs(c.nsets, c.ways, c.sparse)
	if !slices.Equal(parked.tags, want.tags) || !slices.Equal(parked.states, want.states) || !slices.Equal(parked.lru, want.lru) {
		t.Fatalf("%+v sparse=%v: released slabs differ from freshly allocated ones", c.cfg, c.sparse)
	}
	if !slices.Equal(parked.touched, want.touched) {
		t.Fatalf("%+v: released touched bitmap %x, want all clear", c.cfg, parked.touched)
	}
	if !slices.Equal(parked.setDir, want.setDir) {
		t.Fatalf("%+v: released set directory keeps blocks", c.cfg)
	}
}

// restoredWidths fails unless every set of a cache restoreCache just
// built holds the block Insert would have given it: none when it holds no
// line, a small one when its highest valid way is below smallWays (and
// the cache is wider than that), a full one otherwise.
func restoredWidths(t *testing.T, c *SetAssoc) {
	t.Helper()
	for set := 0; set < c.nsets && c.tags != nil; set++ {
		b, n := c.setBlock(set)
		top := -1
		for i := 0; i < n; i++ {
			if c.states[b+i] != Invalid {
				top = i
			}
		}
		want := c.ways
		switch {
		case top < 0 && c.sparse:
			want = 0
		case top < smallWays && c.sparse && c.ways > smallWays:
			want = smallWays
		}
		if n != want {
			t.Fatalf("%+v sparse=%v: restored set %d, highest valid way %d, holds a block of %d ways, want %d", c.cfg, c.sparse, set, top, n, want)
		}
	}
}

// cacheOp is one seeded random operation on a cache.
type cacheOp struct {
	kind int
	line memory.Addr
	st   State
}

// randomOp draws an operation of any kind (inserts only when asked) over
// three times the cache's capacity in lines, so sets fill and evict.
func randomOp(c *SetAssoc, r *rand.Rand, inserts bool) cacheOp {
	op := cacheOp{
		line: memory.Addr(uint64(r.Int63n(int64(3*c.Capacity()))) * memory.LineSize),
		kind: r.Intn(8),
		st:   State(1 + r.Intn(3)),
	}
	if !inserts && op.kind < 3 {
		op.kind += 3
	}
	return op
}

// apply runs the operation and returns everything it reported.
func (op cacheOp) apply(c *SetAssoc) (res [4]uint64) {
	switch op.kind {
	case 0, 1, 2:
		l, st, ok := c.Insert(op.line, op.st)
		res[0], res[1] = uint64(l), uint64(st)
		if ok {
			res[2] = 1
		}
	case 3:
		res[0] = uint64(c.Lookup(op.line))
	case 4:
		res[0] = uint64(c.Peek(op.line))
	case 5:
		if c.SetState(op.line, op.st) {
			res[0] = 1
		}
	case 6:
		if c.Downgrade(op.line) {
			res[0] = 1
		}
	case 7:
		res[0] = uint64(c.Invalidate(op.line))
	}
	res[3] = uint64(op.kind)
	return res
}

// churn drives n seeded random operations of every kind through the cache.
func churn(c *SetAssoc, r *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		randomOp(c, r, true).apply(c)
	}
}

func cacheBytes(c *SetAssoc) string {
	e := &snapbin.Enc{}
	saveCache(e, c)
	return string(e.Bytes())
}

// recycleGeometries: a power-of-two set count, two that are not (one
// spanning several bitmap words with a partial last word), the one-set
// cache, and sixteen 12-way sets — wider than a sparse cache's small
// block, and few enough that the streams promote sets and evict from
// their full blocks while others stay small.
var recycleGeometries = []Config{
	{SizeBytes: 128 * 2 * memory.LineSize, Ways: 2},
	{SizeBytes: 100 * 3 * memory.LineSize, Ways: 3},
	{SizeBytes: 1638 * 10 * memory.LineSize, Ways: 10},
	{SizeBytes: 4 * memory.LineSize, Ways: 4},
	{SizeBytes: 16 * 12 * memory.LineSize, Ways: 12},
}

// TestReleasedEqualsFresh is the oracle of the slab pool: whatever a
// cache went through — every operation, evictions, invalidations that
// leave stale LRU stamps behind, a restore over dirty slabs — release
// parks slabs that are word for word what the allocator builds. One cache
// takes what the earlier rounds parked at construction, the other at its
// first Insert; each layout restores the other's state as well as its
// own.
func TestReleasedEqualsFresh(t *testing.T) {
	for _, cfg := range recycleGeometries {
		for _, from := range layouts {
			for _, into := range layouts {
				for seed := int64(1); seed <= 4; seed++ {
					r := rand.New(rand.NewSource(seed))
					c, err := newSetAssoc(cfg, from.sparse)
					if err != nil {
						t.Fatal(err)
					}
					d := shellCache(t, cfg, into.sparse)
					churn(c, r, 200*int(seed)) // few operations on the low seeds: most sets stay untouched
					churn(d, r, 5000)

					// Restore c's state over the dirty d, then keep using d.
					saved := cacheBytes(c)
					if err := restoreCache(snapbin.NewDec([]byte(saved)), d, "d"); err != nil {
						t.Fatal(err)
					}
					if cacheBytes(d) != saved {
						t.Fatalf("%+v %s→%s seed %d: restore did not reproduce the saved cache", cfg, from.name, into.name, seed)
					}
					restoredWidths(t, d)
					churn(d, r, 300)

					releaseChecked(t, c)
					releaseChecked(t, d)
				}
			}
		}
	}
}

// TestLazyEqualsEager: a cache of either layout that builds its slabs at
// its first Insert is, at every step of every operation stream, the dense
// cache that was built at construction — same answers, same statistics,
// same snapshot bytes — and a cache nothing is inserted into never builds
// at all, not even by restoring an empty snapshot over it. The sparse run
// is the set directory's differential against the dense layout, through
// restores over dirty slabs of both layouts and a release whose slabs the
// next round's caches take back.
func TestLazyEqualsEager(t *testing.T) {
	for _, cfg := range recycleGeometries {
		for _, layout := range layouts {
			for seed := int64(1); seed <= 3; seed++ {
				lazyEqualsEager(t, cfg, layout.sparse, seed)
			}
		}
	}
}

func lazyEqualsEager(t *testing.T, cfg Config, sparse bool, seed int64) {
	r := rand.New(rand.NewSource(seed))
	lazy, eager := shellCache(t, cfg, sparse), freshCache(t, cfg, false)
	same := func(step int, what string) {
		t.Helper()
		if lazy.Stats() != eager.Stats() || lazy.Occupancy() != eager.Occupancy() {
			t.Fatalf("%+v sparse=%v seed %d step %d %s: lazy %+v/%d lines, eager %+v/%d lines",
				cfg, sparse, seed, step, what, lazy.Stats(), lazy.Occupancy(), eager.Stats(), eager.Occupancy())
		}
		if cacheBytes(lazy) != cacheBytes(eager) {
			t.Fatalf("%+v sparse=%v seed %d step %d %s: snapshot bytes diverged", cfg, sparse, seed, step, what)
		}
	}
	drive := func(n int, inserts bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			op := randomOp(lazy, r, inserts)
			if l, e := op.apply(lazy), op.apply(eager); l != e {
				t.Fatalf("%+v sparse=%v seed %d op %d %+v: lazy %v, eager %v", cfg, sparse, seed, i, op, l, e)
			}
			// The snapshot walk is O(sets): every step on the small
			// geometries, sampled on the Power5 L2's.
			if lazy.nsets <= 128 || i%97 == 0 {
				same(i, "op")
			}
		}
	}

	// Everything but Insert leaves the lazy cache a shell.
	drive(300, false)
	same(300, "before any insert")
	if lazy.Backing() != nil {
		t.Fatalf("%+v: a cache nothing was inserted into built its slabs", cfg)
	}
	if lazy.Stats().Misses == 0 {
		t.Fatalf("%+v: an unbuilt cache must still count its misses", cfg)
	}
	lazy.ForEachLine(func(memory.Addr, State) { t.Fatal("an unbuilt cache reported a line") })
	empty := cacheBytes(lazy)
	if err := restoreCache(snapbin.NewDec([]byte(empty)), lazy, "lazy"); err != nil {
		t.Fatal(err)
	}
	if lazy.Backing() != nil {
		t.Fatalf("%+v: restoring an empty snapshot built the slabs", cfg)
	}
	same(300, "after an empty restore")

	drive(2000, true)
	if lazy.Backing() == nil {
		t.Fatalf("%+v: inserts left the cache unbuilt", cfg)
	}

	// Both ways across a restore: the lazy state over a dirty eager
	// cache and over a dirty cache of the lazy one's layout, which
	// carries on as the lazy cache; then the empty state over both.
	saved := cacheBytes(lazy)
	dirty := []*SetAssoc{freshCache(t, cfg, false), shellCache(t, cfg, sparse)}
	for _, c := range dirty {
		churn(c, r, 1000)
		if err := restoreCache(snapbin.NewDec([]byte(saved)), c, "dirty"); err != nil {
			t.Fatal(err)
		}
		restoredWidths(t, c)
	}
	releaseChecked(t, lazy)
	releaseChecked(t, eager)
	eager, lazy = dirty[0], dirty[1]
	same(2300, "after restoring over dirty slabs")
	drive(500, true)
	for _, c := range []*SetAssoc{lazy, eager} {
		if err := restoreCache(snapbin.NewDec([]byte(empty)), c, "c"); err != nil {
			t.Fatal(err)
		}
	}
	if lazy.Backing() != nil || eager.Backing() != nil {
		t.Fatalf("%+v: restoring an empty snapshot over a built cache kept its slabs", cfg)
	}
	same(2800, "after an empty restore over built slabs")
	drive(500, true)

	// A refused snapshot leaves the cache as it was.
	before := cacheBytes(lazy)
	if err := restoreCache(snapbin.NewDec([]byte(before[:len(before)-1])), lazy, "lazy"); err == nil {
		t.Fatalf("%+v: a truncated snapshot restored", cfg)
	}
	if cacheBytes(lazy) != before {
		t.Fatalf("%+v: a refused snapshot changed the cache", cfg)
	}
	releaseChecked(t, lazy)
	releaseChecked(t, eager)
}

// randomAccess draws one access over a 4096-line range.
func randomAccess(r *rand.Rand, topo topology.Topology) (topology.CPUID, memory.Addr, bool) {
	return topology.CPUID(r.Intn(topo.NumCPUs())), memory.Addr(r.Intn(4096)) * memory.LineSize, r.Intn(3) == 0
}

// backings returns the slab identity of every cache of the hierarchy that
// holds slabs.
func backings(h *Hierarchy) map[unsafe.Pointer]bool {
	b := map[unsafe.Pointer]bool{}
	for _, c := range slices.Concat(h.caches()) {
		if c.Backing() != nil {
			b[c.Backing()] = true
		}
	}
	return b
}

// TestReleasedHierarchyIsReused: the slabs a hierarchy releases are the
// ones the next caches of that geometry hold, and they replay an access
// stream exactly as never-used slabs do.
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
		h.Access(randomAccess(r, topo))
	}
	old := backings(h)
	if want := topo.NumCores() + 2*topo.Chips; len(old) != want {
		t.Fatalf("%d of %d caches built; the stream should have spilled into every L3", len(old), want)
	}
	h.Release()
	if l1, l2, l3 := h.caches(); l1 != nil || l2 != nil || l3 != nil {
		t.Fatal("Release kept references to the slabs it gave away")
	}
	h.Release() // idempotent

	// The broadcast hierarchy is made first, so it takes the parked slabs.
	ref, next, _ := triplet(t, topo, lat, cfg)
	r = rand.New(rand.NewSource(10))
	for i := 0; i < 20000; i++ {
		cpu, addr, write := randomAccess(r, topo)
		if want, got := ref.Access(cpu, addr, write), next.Access(cpu, addr, write); want != got {
			t.Fatalf("op %d on recycled slabs: %+v, reference %+v", i, got, want)
		}
	}
	// sync.Pool may drop an item (it does so at random under the race
	// detector), so demand reuse, not reuse of every slab.
	reused := 0
	for b := range backings(next) {
		if old[b] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("none of the %d released slab sets was reused by the next hierarchy", len(old))
	}
	compareCounters(t, 20000, ref, next)
	sameCaches(t, ref, next)
}
