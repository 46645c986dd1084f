// Package cache simulates the SMP-CMP-SMT memory hierarchy of the paper's
// evaluation platform: a per-core L1 data cache, a per-chip L2 shared by
// the chip's cores, and a per-chip victim L3, kept coherent across chips by
// an invalidation protocol. Every access reports the *source* that
// satisfied it (local L1/L2/L3, a remote chip's L2/L3, or memory), which is
// exactly the attribution the paper's PMU-based stall breakdown needs.
package cache

import (
	"fmt"
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
// is maintained by newSlabs, Invalidate, restoreCache and release.
const invalidTag = ^memory.Addr(0)

// SetAssoc is a set-associative cache with true-LRU replacement. Addresses
// are tracked at line granularity. It is a passive container: coherence
// decisions live in Hierarchy.
//
// The backing store is structure-of-arrays: three contiguous slabs
// (tags, states, lru) indexed by set*ways + way. A probe walks `ways`
// adjacent tag words in one slab — typically a single cache line of
// simulator-host memory — instead of chasing a per-set slice header into
// 24-byte AoS records. The hit path then touches exactly the state and
// LRU words it needs.
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
}

// slabs is the backing store of one built cache; all four are nil in a
// shell. tags, states and lru have nsets*ways entries; way i of set s lives
// at index s*ways + i.
type slabs struct {
	tags   []memory.Addr
	states []State
	lru    []uint64 // last-touch stamps; larger = more recent
	// touched has one bit per set, raised when a way of the set may differ
	// from the freshly built image: by Insert and by restoreCache for the
	// sets it fills. release rewrites exactly those sets, so recycling a
	// cache costs O(sets touched), not O(capacity).
	touched []uint64 // derived from the slabs: restoreCache rebuilds it from the ways it fills, so it is never serialised
}

// slabPools parks released slab sets for reuse, one sync.Pool per geometry
// (Config → *sync.Pool of *slabs). A parked set is word for word what
// newSlabs returns; the garbage collector bounds how long an idle one is
// kept.
var slabPools sync.Map

// NewSetAssoc returns an empty cache of the configuration. It allocates no
// slabs — the first Insert builds them — but takes a parked set of its
// geometry when there is one: that memory is resident either way, and
// holding it from construction keeps the collector from dropping it
// moments before a cast-out would have asked for it.
func NewSetAssoc(cfg Config) (*SetAssoc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets()
	c := &SetAssoc{cfg: cfg, nsets: n, ways: cfg.Ways, slabs: parkedSlabs(cfg)}
	if n&(n-1) == 0 {
		c.setMask = uint64(n) - 1
		c.pow2 = true
	}
	return c, nil
}

// parkedSlabs takes a released slab set of the geometry out of the pool,
// or returns the zero slabs when none is parked.
func parkedSlabs(cfg Config) slabs {
	if p, ok := slabPools.Load(cfg); ok {
		if s, ok := p.(*sync.Pool).Get().(*slabs); ok {
			return *s
		}
	}
	return slabs{}
}

// build gives a shell its slabs: a set parked since the cache was made,
// or a freshly allocated one.
func (c *SetAssoc) build() {
	if c.slabs = parkedSlabs(c.cfg); c.tags == nil {
		c.slabs = newSlabs(c.nsets, c.ways)
	}
}

// newSlabs allocates and tag-fills the slabs of an empty cache.
func newSlabs(nsets, ways int) slabs {
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

// release empties the cache: one that holds slabs rewrites the touched
// sets to the freshly built image, parks the slabs for the next cache of
// the geometry, and is a shell again; a shell only zeroes its counters.
func (c *SetAssoc) release() {
	c.stamp = 0
	c.stats = Stats{}
	if c.tags == nil {
		return
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
	p, ok := slabPools.Load(c.cfg)
	if !ok {
		p, _ = slabPools.LoadOrStore(c.cfg, new(sync.Pool))
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

// setBase returns the slab index of the set's first way.
func (c *SetAssoc) setBase(line memory.Addr) int { return c.setOf(line) * c.ways }

// findWay returns the slab index of the line's way, or -1. Because empty
// ways hold invalidTag, the scan touches only the tag slab; a shell holds
// nothing, so it answers before computing a set. The scan reads every
// way and keeps a match with a conditional move rather than leaving at
// the first hit: a set's tags are unique, so the answer is the same, and
// the loop has no data-dependent branch to mispredict.
func (c *SetAssoc) findWay(line memory.Addr) int {
	if c.tags == nil {
		return -1
	}
	b := c.setBase(line)
	way := -1 - b // b + way is -1 on a miss
	for i, tag := range c.tags[b : b+c.ways] {
		if tag == line {
			way = i
		}
	}
	return b + way
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
	if c.tags == nil {
		c.build()
	}
	set := c.setOf(line)
	b := set * c.ways
	c.touched[set>>6] |= 1 << (uint(set) & 63)
	c.stamp++
	// One pass over the tag slab finds the line and, failing that, the
	// first free way (empty ways carry invalidTag, so both checks read
	// the same dense array).
	victim := -1
	tags := c.tags[b : b+c.ways]
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
// one released.
func (c *SetAssoc) Backing() *memory.Addr { return unsafe.SliceData(c.tags) }

// Capacity returns the total number of lines the cache can hold.
func (c *SetAssoc) Capacity() int { return c.nsets * c.ways }
