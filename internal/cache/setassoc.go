// Package cache simulates the SMP-CMP-SMT memory hierarchy of the paper's
// evaluation platform: a per-core L1 data cache, a per-chip L2 shared by
// the chip's cores, and a per-chip victim L3, kept coherent across chips by
// an invalidation protocol. Every access reports the *source* that
// satisfied it (local L1/L2/L3, a remote chip's L2/L3, or memory), which is
// exactly the attribution the paper's PMU-based stall breakdown needs.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
)

// State is the MESI coherence state of a cached line.
type State uint8

const (
	// Invalid marks an empty or invalidated way.
	Invalid State = iota
	// Shared marks a clean line that other caches may also hold.
	Shared
	// Exclusive marks a clean line held by no other chip.
	Exclusive
	// Modified marks a dirty line held by no other chip.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config sizes one cache.
type Config struct {
	SizeBytes uint64 // total capacity in bytes
	Ways      int    // associativity
}

// Sets returns the number of sets the configuration yields.
func (c Config) Sets() int {
	lines := c.SizeBytes / memory.LineSize
	return int(lines) / c.Ways
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways must be positive, got %d: %w", c.Ways, errs.ErrBadConfig)
	}
	if c.SizeBytes < memory.LineSize {
		return fmt.Errorf("cache: size %d smaller than one line: %w", c.SizeBytes, errs.ErrBadConfig)
	}
	if c.SizeBytes%memory.LineSize != 0 {
		return fmt.Errorf("cache: size %d not a multiple of the line size: %w", c.SizeBytes, errs.ErrBadConfig)
	}
	if c.Sets() == 0 {
		return fmt.Errorf("cache: %d bytes at %d ways yields zero sets: %w", c.SizeBytes, c.Ways, errs.ErrBadConfig)
	}
	return nil
}

// Stats counts what happened to one cache since construction.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64 // lines removed by coherence actions
	Fills         uint64
}

// invalidTag fills every empty way's tag slot. Line addresses are always
// line-aligned (the low memory.LineShift bits are zero), so the all-ones
// pattern can never equal a real line: a probe may compare tags alone,
// touching one dense slab, without consulting the state slab first. The
// invariant — tags[i] == invalidTag exactly when states[i] == Invalid —
// is maintained by newSlabs, claim, promote, Invalidate, restoreCache and
// release.
const invalidTag = ^memory.Addr(0)

// SetAssoc is a set-associative cache with true-LRU replacement. Addresses
// are tracked at line granularity. It is a passive container: coherence
// decisions live in Hierarchy.
//
// The backing store is structure-of-arrays: three contiguous slabs
// (tags, states, lru) of `ways`-sized blocks, one block per set. A probe
// walks `ways` adjacent tag words in one slab — typically a single cache
// line of simulator-host memory — instead of chasing a per-set slice
// header into 24-byte AoS records. The hit path then touches exactly the
// state and LRU words it needs.
//
// The slabs come in two layouts, chosen by the cache's role when
// NewHierarchy builds it. A dense cache (every L1 and L2, and whatever
// NewSetAssoc returns) holds a block for every set, way i of set s at
// index s*ways + i: those levels run mostly full, and the probe computes
// its block with no load. A sparse cache (the victim L3) holds blocks
// only for the sets it has filled, in an arena behind a per-set
// directory, so its host memory follows what it caches rather than its
// capacity: a grid-length run leaves under 5 % of a 36 MB L3's lines
// filled. A set's first fill gives it a small block of smallWays ways;
// the Insert that finds those all valid moves the set to a full block of
// ways and leaves the small one empty in place. Every line
// keeps the way index the dense layout gives it, because Insert fills the
// lowest invalid way and a small block holds ways 0..smallWays-1.
//
// Slabs are built by the first Insert — the one operation that makes a
// way valid. Until then a cache is a shell that answers every probe
// "absent", which is what an all-invalidTag slab would answer, so a cache
// nothing is ever inserted into (the victim L3 of a run whose L2s never
// cast out) costs no allocation; at most it holds, untouched, a slab set
// some earlier cache released.
type SetAssoc struct {
	cfg   Config
	nsets int
	ways  int
	slabs
	stamp uint64
	stats Stats
	// setMask is nsets-1 when the set count is a power of two, which
	// turns the per-probe modulo into a mask (the hot-path case: every
	// Power5 L1 and all of SmallConfig). Zero set counts are rejected by
	// Validate, so setMask == 0 only for the 1-set degenerate cache,
	// where the mask is trivially correct too.
	setMask uint64
	pow2    bool
	sparse  bool // the slabs are a block arena behind setDir
}

// slabs is the backing store of one built cache; every slice is nil in a
// shell. In a dense cache tags, states and lru have nsets*ways entries and
// set s owns the block at s*ways. In a sparse cache they are an arena of
// the blocks handed out so far, and setDir maps each set to its block.
type slabs struct {
	tags   []memory.Addr
	states []State
	lru    []uint64 // last-touch stamps; larger = more recent
	// touched (dense only) has one bit per set, raised when a way of the
	// set may differ from the freshly built image: by Insert and by
	// restoreCache for the sets it fills. release rewrites exactly those
	// sets, so recycling a cache costs O(sets touched), not O(capacity).
	touched []uint64 // derived from the slabs: restoreCache rebuilds it from the ways it fills, so it is never serialised
	// setDir (sparse only) has one entry per set: 0 for a set that has
	// never been filled, 1 + the arena index of the set's first way for a
	// full block, and the negation of that for a small one. A set gets
	// its block at its first fill, may trade it for a full one, and keeps
	// that until release, which clears the directory and truncates the
	// arena; that is the sparse layout's touched bitmap. Derived the same
	// way: the arena's block order is fill order, which restoreCache does
	// not replay, and nothing observable depends on it.
	setDir []int32
}

// slabKey names one pool of parked slab sets: a geometry and a layout.
type slabKey struct {
	cfg    Config
	sparse bool
}

// slabPools parks released slab sets for reuse, one sync.Pool per
// geometry and layout (slabKey → *sync.Pool of *slabs). A parked set is
// word for word what newSlabs returns, except that a sparse arena keeps
// the capacity it grew to; the garbage collector bounds how
// long an idle one is kept.
var slabPools sync.Map

// NewSetAssoc returns an empty dense cache of the configuration. It
// allocates no slabs — the first Insert builds them — but takes a parked
// set of its geometry when there is one: that memory is resident either
// way, and holding it from construction keeps the collector from dropping
// it moments before a cast-out would have asked for it.
func NewSetAssoc(cfg Config) (*SetAssoc, error) { return newSetAssoc(cfg, false) }

// newSetAssoc is NewSetAssoc for either layout.
func newSetAssoc(cfg Config, sparse bool) (*SetAssoc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	if sparse && n*(cfg.Ways+smallWays) > math.MaxInt32 {
		return nil, fmt.Errorf("cache: %d sets overflow the set directory: %w", n, errs.ErrBadConfig)
	}
	c := &SetAssoc{cfg: cfg, nsets: n, ways: cfg.Ways, sparse: sparse}
	c.slabs = c.parked()
	if n&(n-1) == 0 {
		c.setMask = uint64(n) - 1
		c.pow2 = true
	}
	return c, nil
}

// parked takes a released slab set of the cache's geometry and layout out
// of the pool, or returns the zero slabs when none is parked.
func (c *SetAssoc) parked() slabs {
	if p, ok := slabPools.Load(slabKey{c.cfg, c.sparse}); ok {
		if s, ok := p.(*sync.Pool).Get().(*slabs); ok {
			return *s
		}
	}
	return slabs{}
}

// build gives a shell its slabs: a set parked since the cache was made,
// or a freshly allocated one.
func (c *SetAssoc) build() {
	if c.slabs = c.parked(); c.tags == nil {
		c.slabs = newSlabs(c.nsets, c.ways, c.sparse)
	}
}

// newSlabs allocates the slabs of an empty cache: tag-filled blocks for
// every set of a dense one; for a sparse one a clear directory and an
// empty arena with room for a few blocks.
func newSlabs(nsets, ways int, sparse bool) slabs {
	if sparse {
		n := min(64, nsets) * ways
		return slabs{
			tags:   make([]memory.Addr, 0, n),
			states: make([]State, 0, n),
			lru:    make([]uint64, 0, n),
			setDir: make([]int32, nsets),
		}
	}
	s := slabs{
		tags:    make([]memory.Addr, nsets*ways),
		states:  make([]State, nsets*ways),
		lru:     make([]uint64, nsets*ways),
		touched: make([]uint64, (nsets+63)/64),
	}
	for i := range s.tags {
		s.tags[i] = invalidTag
	}
	return s
}

// release empties the cache: one that holds slabs resets them to the
// freshly built image — a dense cache rewrites its touched sets, a sparse
// one clears its directory and truncates its arena — parks
// them for the next cache of the geometry and layout, and is a shell
// again; a shell only zeroes its counters.
func (c *SetAssoc) release() {
	c.stamp = 0
	c.stats = Stats{}
	if c.tags == nil {
		return
	}
	if c.sparse {
		clear(c.setDir)
		c.tags, c.states, c.lru = c.tags[:0], c.states[:0], c.lru[:0]
	}
	for w, word := range c.touched {
		for ; word != 0; word &= word - 1 {
			b := (w<<6 + bits.TrailingZeros64(word)) * c.ways
			for i := b; i < b+c.ways; i++ {
				c.tags[i] = invalidTag
				c.states[i] = Invalid
				c.lru[i] = 0
			}
		}
		c.touched[w] = 0
	}
	key := slabKey{c.cfg, c.sparse}
	p, ok := slabPools.Load(key)
	if !ok {
		p, _ = slabPools.LoadOrStore(key, new(sync.Pool))
	}
	s := c.slabs
	c.slabs = slabs{}
	p.(*sync.Pool).Put(&s)
}

// Config returns the cache's configuration.
func (c *SetAssoc) Config() Config { return c.cfg }

// Stats returns a copy of the cache's counters.
func (c *SetAssoc) Stats() Stats { return c.stats }

// setOf returns the index of the set the line maps to.
func (c *SetAssoc) setOf(line memory.Addr) int {
	if c.pow2 {
		return int(memory.LineIndex(line) & c.setMask)
	}
	// A non-power-of-two set count (e.g. the Power5 L2's 1638 sets) must
	// keep the modulo: any faster reduction would change the set mapping
	// and with it every byte of downstream results.
	return int(memory.LineIndex(line) % uint64(c.nsets))
}

// findWay returns the slab index of the line's way, or -1. Because empty
// ways hold invalidTag, the scan touches only the tag slab; a shell holds
// nothing, so it answers before computing a set, and a sparse cache
// answers from its directory: nothing for a set it has never filled, else
// the smallWays or ways tags of the set's block. The scan reads every way
// and keeps a match with a conditional move rather than leaving at the
// first hit: a set's tags are unique, so the answer is the same, and the
// loop has no data-dependent branch to mispredict.
func (c *SetAssoc) findWay(line memory.Addr) int {
	if c.tags == nil {
		return -1
	}
	b, n := 0, c.ways
	if c.setDir == nil {
		b = c.setOf(line) * c.ways
	} else if b, n = c.span(c.setDir[c.setOf(line)]); b < 0 {
		return -1
	}
	way := -1 - b // b + way is -1 on a miss
	for i, tag := range c.tags[b : b+n] {
		if tag == line {
			way = i
		}
	}
	return b + way
}

// smallWays is the width of the block a sparse cache gives a set at its
// first fill; the set takes a full block of ways at its fifth line. On
// the paper's machine a grid-length specjbb run filled 7 091 sets of chip
// 0's 12-way L3 and none held more than four lines, so a small block
// holds the typical set in 32 bytes of tags instead of 96. A cache of at
// most smallWays ways gives every set a full block.
const smallWays = 4

// span decodes a sparse cache's directory entry: the slab index of the
// set's first way and the number of ways its block holds, or -1 for a
// set that has never been filled.
func (c *SetAssoc) span(v int32) (b, n int) {
	switch {
	case v > 0:
		return int(v) - 1, c.ways
	case v < 0:
		return int(-v) - 1, smallWays
	}
	return -1, 0
}

// block readies the set to take a valid way below need and returns the
// slab index of its first way and the number of ways its block holds: it
// builds a shell's slabs, marks the set touched in a dense cache, and at
// a sparse cache's first fill of the set claims a block — a small one
// when need allows. Insert (need 1) and restoreCache (need the highest
// way it restores, plus one) are its only callers — the two places a way
// becomes valid.
func (c *SetAssoc) block(set, need int) (int, int) {
	if c.tags == nil {
		c.build()
	}
	if !c.sparse {
		c.touched[set>>6] |= 1 << (uint(set) & 63)
		return set * c.ways, c.ways
	}
	if v := c.setDir[set]; v != 0 {
		return c.span(v)
	}
	if c.ways > smallWays && need <= smallWays {
		return c.claim(set, smallWays), smallWays
	}
	return c.claim(set, c.ways), c.ways
}

// claim gives a sparse cache's set a block of n ways — smallWays or ways —
// at the arena's end, reset from whatever an earlier cache left in those
// words, and returns the slab index of its first way.
func (c *SetAssoc) claim(set, n int) int {
	b := len(c.tags)
	if b+n > cap(c.tags) {
		c.growArena()
	}
	c.tags, c.states, c.lru = c.tags[:b+n], c.states[:b+n], c.lru[:b+n]
	for i := b; i < b+n; i++ {
		c.tags[i] = invalidTag
		c.states[i] = Invalid
		c.lru[i] = 0
	}
	v := int32(b) + 1
	if n < c.ways {
		v = -v
	}
	c.setDir[set] = v
	return b
}

// promote moves a set from its small block at b, every way valid, to a
// full block and returns the full block's slab index. The ways keep their
// indexes. The small block stays in the arena, in no set's directory
// entry, reset to the built image because ForEachLine and Occupancy scan
// the whole arena.
func (c *SetAssoc) promote(set, b int) int {
	f := c.claim(set, c.ways)
	copy(c.tags[f:f+smallWays], c.tags[b:b+smallWays])
	copy(c.states[f:f+smallWays], c.states[b:b+smallWays])
	copy(c.lru[f:f+smallWays], c.lru[b:b+smallWays])
	for i := b; i < b+smallWays; i++ {
		c.tags[i] = invalidTag
		c.states[i] = Invalid
		c.lru[i] = 0
	}
	return f
}

// growArena doubles a sparse cache's arena, but never past one full block
// per set plus, when its sets start small, one small block per set: a set
// claims a small block only at its first fill and a full block at most
// once, since no set ever goes back to a small one.
func (c *SetAssoc) growArena() {
	n := c.nsets * c.ways
	if c.ways > smallWays {
		n += c.nsets * smallWays
	}
	n = min(2*cap(c.tags), n)
	tags, states, lru := make([]memory.Addr, len(c.tags), n), make([]State, len(c.tags), n), make([]uint64, len(c.tags), n)
	copy(tags, c.tags)
	copy(states, c.states)
	copy(lru, c.lru)
	c.tags, c.states, c.lru = tags, states, lru
}

// setBlock returns the slab index of the set's first way and the number of
// ways its block holds, or -1 when the cache holds no block for it (a
// shell, or a sparse cache's unfilled set).
func (c *SetAssoc) setBlock(set int) (int, int) {
	switch {
	case c.tags == nil:
		return -1, 0
	case !c.sparse:
		return set * c.ways, c.ways
	}
	return c.span(c.setDir[set])
}

// Way returns the line, state and LRU stamp in way i of the set, wherever
// the cache's layout keeps the set; a way outside the set's block, or of a
// set the cache holds no block for, is empty. It reads the ways as a
// snapshot sees them, touching neither LRU nor statistics.
func (c *SetAssoc) Way(set, i int) (memory.Addr, State, uint64) {
	if b, n := c.setBlock(set); i < n {
		return c.tags[b+i], c.states[b+i], c.lru[b+i]
	}
	return invalidTag, Invalid, 0
}

// Lookup probes for the line. On a hit it refreshes LRU and returns the
// current state; on a miss it returns Invalid.
func (c *SetAssoc) Lookup(line memory.Addr) State {
	_, st := c.lookupWay(line)
	return st
}

// lookupWay is Lookup that also returns the slab index of the way it hit
// (-1 on a miss), so the access walk can rewrite that way's state with
// setWayState instead of probing the set again.
func (c *SetAssoc) lookupWay(line memory.Addr) (int, State) {
	if i := c.findWay(line); i >= 0 {
		c.stamp++
		c.lru[i] = c.stamp
		c.stats.Hits++
		return i, c.states[i]
	}
	c.stats.Misses++
	return -1, Invalid
}

// setWayState rewrites the state of the valid way at slab index i, as
// returned by a lookupWay whose line nothing has evicted or invalidated
// since. It is SetState without the probe.
func (c *SetAssoc) setWayState(i int, st State) { c.states[i] = st }

// Peek probes for the line without perturbing LRU or statistics. Coherence
// snoops from other chips use Peek so that remote probes do not distort
// the victim cache's recency ordering.
func (c *SetAssoc) Peek(line memory.Addr) State {
	if i := c.findWay(line); i >= 0 {
		return c.states[i]
	}
	return Invalid
}

// Insert places the line in the given state, evicting the LRU way if the
// set is full. It returns the evicted line and its state when an eviction
// happened. Inserting a line that is already present updates its state in
// place.
func (c *SetAssoc) Insert(line memory.Addr, st State) (evicted memory.Addr, evictedState State, didEvict bool) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	set := c.setOf(line)
	b, n := set*c.ways, c.ways
	if c.sparse || c.tags == nil {
		b, n = c.block(set, 1)
	} else {
		// block's dense case — every L1 and L2 fill — without the call.
		c.touched[set>>6] |= 1 << (uint(set) & 63)
	}
	c.stamp++
	// One pass over the tag slab finds the line and, failing that, the
	// first free way (empty ways carry invalidTag, so both checks read
	// the same dense array).
	victim := -1
	tags := c.tags[b : b+n]
	for i := range tags {
		if tags[i] == line {
			// Already present: update in place.
			c.states[b+i] = st
			c.lru[b+i] = c.stamp
			return 0, Invalid, false
		}
		if victim < 0 && tags[i] == invalidTag {
			victim = b + i
		}
	}
	if victim < 0 && n < c.ways {
		// A full small block: the line takes way n of the set's new full
		// block, the lowest invalid way, as it would in the dense layout.
		b = c.promote(set, b)
		victim = b + n
	}
	if victim < 0 {
		// Evict true LRU.
		victim = b
		lru := c.lru[b : b+c.ways]
		for i := 1; i < len(lru); i++ {
			if lru[i] < c.lru[victim] {
				victim = b + i
			}
		}
		evicted, evictedState, didEvict = c.tags[victim], c.states[victim], true
		c.stats.Evictions++
	}
	c.tags[victim] = line
	c.states[victim] = st
	c.lru[victim] = c.stamp
	c.stats.Fills++
	return evicted, evictedState, didEvict
}

// Invalidate removes the line if present, returning the state it had. A
// return of Invalid means the line was not cached.
func (c *SetAssoc) Invalidate(line memory.Addr) State {
	if i := c.findWay(line); i >= 0 {
		st := c.states[i]
		c.states[i] = Invalid
		c.tags[i] = invalidTag
		c.stats.Invalidations++
		return st
	}
	return Invalid
}

// Downgrade moves the line to Shared if it is present in Exclusive or
// Modified state (a remote read snoop hit). It reports whether the line
// was present.
func (c *SetAssoc) Downgrade(line memory.Addr) bool {
	if i := c.findWay(line); i >= 0 {
		if c.states[i] == Exclusive || c.states[i] == Modified {
			c.states[i] = Shared
		}
		return true
	}
	return false
}

// SetState rewrites the coherence state of a present line (e.g. a write
// upgrade Shared -> Modified). It reports whether the line was present.
func (c *SetAssoc) SetState(line memory.Addr, st State) bool {
	if st == Invalid {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	if i := c.findWay(line); i >= 0 {
		c.states[i] = st
		return true
	}
	return false
}

// ForEachLine calls f for every valid line currently cached, in no
// particular order. The coherence directory's invariant checker uses it to
// rebuild ground truth from cache contents.
func (c *SetAssoc) ForEachLine(f func(line memory.Addr, st State)) {
	for i, st := range c.states {
		if st != Invalid {
			f(c.tags[i], st)
		}
	}
}

// Occupancy returns the number of valid lines currently cached.
func (c *SetAssoc) Occupancy() int {
	n := 0
	for _, st := range c.states {
		if st != Invalid {
			n++
		}
	}
	return n
}

// Backing identifies the cache's slabs: nil while it holds none, and equal
// for two caches exactly when the later one holds the slabs the earlier
// one released. A sparse cache is named by its directory, which keeps its
// address while the arena grows.
func (c *SetAssoc) Backing() unsafe.Pointer {
	if c.sparse {
		return unsafe.Pointer(unsafe.SliceData(c.setDir))
	}
	return unsafe.Pointer(unsafe.SliceData(c.tags))
}

// Capacity returns the total number of lines the cache can hold.
func (c *SetAssoc) Capacity() int { return c.nsets * c.ways }
