package cache

import (
	"fmt"
	"slices"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
)

// This file serializes the hierarchy's complete mutable state for machine
// snapshots: every cache's valid ways (tag, MESI state, LRU stamp and way
// position), the per-cache statistics and stamp counters, the coherence
// directory's presence table (emitted sorted by line address so the
// encoding is canonical), and the barrier-side and per-lane counters.
// Topology, latencies, geometry and the NUMA node map are configuration
// the restoring caller rebuilds; restore validates the snapshot against
// them and refuses mismatches.

// saveCache appends one set-associative cache's state: the LRU stamp
// counter, statistics, geometry (for validation) and every valid way in
// (set, way) order.
func saveCache(e *snapbin.Enc, c *SetAssoc) {
	e.U64(c.stamp)
	e.U64(c.stats.Hits)
	e.U64(c.stats.Misses)
	e.U64(c.stats.Evictions)
	e.U64(c.stats.Invalidations)
	e.U64(c.stats.Fills)
	e.U32(uint32(c.nsets))
	e.U32(uint32(c.ways))
	// Walk the ways in (set, way) order — the same canonical order the
	// pre-slab AoS encoder emitted, so snapshots stay byte-identical
	// whatever the layout. A set without a block (every set of an unbuilt
	// cache, an unfilled set of a sparse one) is empty, and a small
	// block's ways are the set's first ones, the rest empty.
	for s := 0; s < c.nsets; s++ {
		b, n := c.setBlock(s)
		valid := 0
		for i := 0; i < n; i++ {
			if c.states[b+i] != Invalid {
				valid++
			}
		}
		e.U8(uint8(valid))
		for i := 0; i < n; i++ {
			if c.states[b+i] == Invalid {
				continue
			}
			e.U8(uint8(i))
			e.U64(uint64(c.tags[b+i]))
			e.U8(uint8(c.states[b+i]))
			e.U64(c.lru[b+i])
		}
	}
}

// restoreCache overwrites one cache's state with a state saved by
// saveCache, validating geometry, set mapping, way positions, states and
// LRU stamps so a corrupt or hostile snapshot cannot construct a cache
// the simulator could never have produced. The snapshot is decoded into a
// scratch cache of c's layout that builds its slabs at the first filled
// set, and in a sparse one gives each filled set a block as Insert would
// have: a small one when the set's highest valid way is below smallWays,
// a full one otherwise. c is untouched unless the whole of it validates,
// and then swaps its own slabs for the scratch's — so an empty snapshot
// leaves c unbuilt.
func restoreCache(d *snapbin.Dec, c *SetAssoc, what string) error {
	stamp := d.U64()
	var st Stats
	st.Hits = d.U64()
	st.Misses = d.U64()
	st.Evictions = d.U64()
	st.Invalidations = d.U64()
	st.Fills = d.U64()
	nsets := int(d.U32())
	ways := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if nsets != c.nsets || ways != c.ways {
		return fmt.Errorf("cache: snapshot %s geometry %dx%d, built %dx%d: %w",
			what, nsets, ways, c.nsets, c.ways, errs.ErrBadConfig)
	}
	fresh := SetAssoc{cfg: c.cfg, nsets: nsets, ways: ways, sparse: c.sparse}
	// Parks whichever slabs end up unused: the scratch's when the snapshot
	// is refused, c's own — reset in O(touched sets) — when it is adopted.
	defer fresh.release()
	// One set's ways, validated before the set is given a block, since
	// the block's width depends on its highest way.
	type wayImage struct {
		idx   int
		tag   memory.Addr
		state State
		lru   uint64
	}
	var set []wayImage
	for s := 0; s < nsets; s++ {
		valid := int(d.U8())
		if d.Err() != nil {
			return d.Err()
		}
		if valid > ways {
			return fmt.Errorf("cache: snapshot %s set %d claims %d valid ways of %d: %w",
				what, s, valid, ways, snapbin.ErrCorrupt)
		}
		set = set[:0]
		prev := -1
		for v := 0; v < valid; v++ {
			idx := int(d.U8())
			tag := memory.Addr(d.U64())
			state := State(d.U8())
			lru := d.U64()
			if d.Err() != nil {
				return d.Err()
			}
			if idx <= prev || idx >= ways {
				return fmt.Errorf("cache: snapshot %s set %d way index %d out of order: %w",
					what, s, idx, snapbin.ErrCorrupt)
			}
			prev = idx
			if state < Shared || state > Modified {
				return fmt.Errorf("cache: snapshot %s line %#x state %d: %w",
					what, uint64(tag), uint8(state), snapbin.ErrCorrupt)
			}
			if tag != memory.LineOf(tag) {
				return fmt.Errorf("cache: snapshot %s tag %#x not line-aligned: %w",
					what, uint64(tag), snapbin.ErrCorrupt)
			}
			if int(memory.LineIndex(tag)%uint64(nsets)) != s {
				return fmt.Errorf("cache: snapshot %s line %#x mapped to set %d: %w",
					what, uint64(tag), s, snapbin.ErrCorrupt)
			}
			if lru > stamp {
				return fmt.Errorf("cache: snapshot %s line %#x LRU stamp %d beyond counter %d: %w",
					what, uint64(tag), lru, stamp, snapbin.ErrCorrupt)
			}
			for _, w := range set {
				if w.tag == tag {
					return fmt.Errorf("cache: snapshot %s line %#x duplicated in set %d: %w",
						what, uint64(tag), s, snapbin.ErrCorrupt)
				}
			}
			set = append(set, wayImage{idx, tag, state, lru})
		}
		// Every set the snapshot leaves empty stays at the built image,
		// so the filled sets are exactly the touched ones (the ones with a
		// block, in a sparse cache).
		if valid == 0 {
			continue
		}
		b, _ := fresh.block(s, prev+1)
		for _, w := range set {
			fresh.tags[b+w.idx] = w.tag
			fresh.states[b+w.idx] = w.state
			fresh.lru[b+w.idx] = w.lru
		}
	}
	c.slabs, fresh.slabs = fresh.slabs, c.slabs
	c.stamp = stamp
	c.stats = st
	return nil
}

// savePres appends the machine-wide presence table sorted by line — the
// canonical order, whatever the hash table's layout.
func savePres(e *snapbin.Enc, t *lineTable) {
	e.U64(uint64(t.peak))
	lines := make([]memory.Addr, 0, t.n)
	t.forEach(func(line memory.Addr, _ *presEntry) {
		lines = append(lines, line)
	})
	slices.Sort(lines)
	e.U32(uint32(len(lines)))
	for _, line := range lines {
		ent := t.find(line)
		e.U64(uint64(line))
		e.U64(ent.l2)
		e.U64(ent.l3)
	}
}

// restorePres rebuilds the presence table from a savePres encoding.
func (h *Hierarchy) restorePres(d *snapbin.Dec) error {
	peak := int(d.U64())
	n := d.Count(24)
	chipMask := uint64(1)<<uint(h.topo.Chips) - 1
	var t lineTable
	t.init()
	defer t.release() // the refused table, or the one the restored one replaces
	var prev memory.Addr
	for i := 0; i < n; i++ {
		line := memory.Addr(d.U64())
		l2 := d.U64()
		l3 := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && line <= prev {
			return fmt.Errorf("cache: snapshot presence table out of order at %#x: %w", uint64(line), snapbin.ErrCorrupt)
		}
		prev = line
		if line != memory.LineOf(line) || l2|l3 == 0 || (l2|l3)&^chipMask != 0 {
			return fmt.Errorf("cache: snapshot presence entry %#x {l2:%#x l3:%#x}: %w", uint64(line), l2, l3, snapbin.ErrCorrupt)
		}
		*t.ensure(line) = presEntry{l2: l2, l3: l3}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if peak < t.n {
		return fmt.Errorf("cache: snapshot presence peak %d below occupancy %d: %w", peak, t.n, snapbin.ErrCorrupt)
	}
	t.peak = peak
	h.pres, t = t, h.pres
	return nil
}

// SaveState appends the hierarchy's complete mutable state to the
// encoder. The hierarchy must be quiesced at a slice barrier: every
// lane's coherence mailbox drained. The encoding is canonical — hash
// tables are emitted sorted by line address — so identical logical state
// yields identical bytes regardless of engine or GOMAXPROCS.
func (h *Hierarchy) SaveState(e *snapbin.Enc) error {
	for chip := range h.lanes {
		if len(h.lanes[chip].ops) != 0 {
			return fmt.Errorf("cache: chip %d lane has %d unapplied coherence ops mid-slice: %w",
				chip, len(h.lanes[chip].ops), errs.ErrThreadRunning)
		}
	}
	e.U8(uint8(h.mode))
	e.U32(uint32(len(h.l1)))
	for _, c := range h.l1 {
		saveCache(e, c)
	}
	e.U32(uint32(len(h.l2)))
	for chip := range h.l2 {
		saveCache(e, h.l2[chip])
		saveCache(e, h.l3[chip])
	}
	e.U64(h.probesAvoided)
	e.U64(h.invalidationsSent)
	savePres(e, &h.pres)
	e.U32(uint32(len(h.lanes)))
	e.U32(uint32(NumSources))
	for chip := range h.lanes {
		l := &h.lanes[chip]
		e.U64(l.probesAvoided)
		e.U64(l.invalidationsSent)
		e.U64(l.upgrades)
		e.U64(l.writebacks)
		for _, v := range l.srcCounts {
			e.U64(v)
		}
		for _, v := range l.srcCycles {
			e.U64(v)
		}
	}
	return nil
}

// RestoreState overwrites the hierarchy's mutable state with a state
// saved by SaveState. The hierarchy must have been rebuilt with the same
// topology, geometry and coherence mode; the restored directory is
// verified against the restored cache contents before returning.
func (h *Hierarchy) RestoreState(d *snapbin.Dec) error {
	if mode := CoherenceMode(d.U8()); d.Err() == nil && mode != h.mode {
		return fmt.Errorf("cache: snapshot coherence mode %v, built with %v: %w", mode, h.mode, errs.ErrBadConfig)
	}
	if n := int(d.U32()); d.Err() == nil && n != len(h.l1) {
		return fmt.Errorf("cache: snapshot has %d L1s, built with %d: %w", n, len(h.l1), errs.ErrBadConfig)
	}
	for core, c := range h.l1 {
		if err := restoreCache(d, c, fmt.Sprintf("L1[%d]", core)); err != nil {
			return err
		}
	}
	if n := int(d.U32()); d.Err() == nil && n != len(h.l2) {
		return fmt.Errorf("cache: snapshot has %d chips, built with %d: %w", n, len(h.l2), errs.ErrBadConfig)
	}
	for chip := range h.l2 {
		if err := restoreCache(d, h.l2[chip], fmt.Sprintf("L2[%d]", chip)); err != nil {
			return err
		}
		if err := restoreCache(d, h.l3[chip], fmt.Sprintf("L3[%d]", chip)); err != nil {
			return err
		}
	}
	h.probesAvoided = d.U64()
	h.invalidationsSent = d.U64()
	if err := h.restorePres(d); err != nil {
		return err
	}
	if n := int(d.U32()); d.Err() == nil && n != len(h.lanes) {
		return fmt.Errorf("cache: snapshot has %d lanes, built with %d: %w", n, len(h.lanes), errs.ErrBadConfig)
	}
	if n := int(d.U32()); d.Err() == nil && n != NumSources {
		return fmt.Errorf("cache: snapshot has %d access sources, built with %d: %w", n, NumSources, errs.ErrBadConfig)
	}
	for chip := range h.lanes {
		l := &h.lanes[chip]
		l.ops = l.ops[:0]
		l.probesAvoided = d.U64()
		l.invalidationsSent = d.U64()
		l.upgrades = d.U64()
		l.writebacks = d.U64()
		for i := range l.srcCounts {
			l.srcCounts[i] = d.U64()
		}
		for i := range l.srcCycles {
			l.srcCycles[i] = d.U64()
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := h.CheckDirectory(); err != nil {
		return fmt.Errorf("cache: restored state fails directory check: %w: %v", snapbin.ErrCorrupt, err)
	}
	return nil
}
