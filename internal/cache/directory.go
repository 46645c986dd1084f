package cache

import (
	"fmt"
	"sync"

	"threadcluster/internal/memory"
)

// CoherenceMode selects how the hierarchy resolves coherence actions that
// span caches: snoops for a line another chip may hold, invalidations on a
// write, and downgrades on a remote read.
type CoherenceMode int

const (
	// CoherenceDirectory (the default) keeps one machine-wide presence
	// table — per line, which chips hold it in L2 and which in L3 — so
	// every coherence action touches only the holder chips: O(holder
	// chips) per action instead of O(cores + chips). Which of a holder
	// chip's few cores have the line in L1 is asked of those L1s directly.
	// The table is written only at slice barriers, which is what makes the
	// deferred Lane execution model race-free.
	CoherenceDirectory CoherenceMode = iota
	// CoherenceBroadcast resolves every coherence action by linearly
	// probing all cores' L1s and all chips' L2/L3s, like a bus-snooping
	// protocol. It is the reference implementation the directory is
	// differentially tested against.
	CoherenceBroadcast
)

func (m CoherenceMode) String() string {
	switch m {
	case CoherenceDirectory:
		return "directory"
	case CoherenceBroadcast:
		return "broadcast"
	}
	return fmt.Sprintf("CoherenceMode(%d)", int(m))
}

// ParseCoherenceMode maps a CLI/config string to a mode.
func ParseCoherenceMode(s string) (CoherenceMode, error) {
	switch s {
	case "directory":
		return CoherenceDirectory, nil
	case "broadcast":
		return CoherenceBroadcast, nil
	}
	return 0, fmt.Errorf("cache: unknown coherence mode %q (want directory or broadcast)", s)
}

// presEntry is the machine-wide presence record of one cache line: which
// chips hold it in their L2 and which in their victim L3. Bitmask width
// caps the directory at 64 chips; NewHierarchy falls back to broadcast
// beyond that.
//
// During a deferred slice the presence table is frozen — chip lanes only
// read it — and every mutation queues as a mailbox op applied at the
// slice barrier in canonical chip order.
type presEntry struct {
	l2 uint64 // chips holding the line in their L2
	l3 uint64 // chips holding the line in their victim L3
}

func (e *presEntry) empty() bool { return e.l2 == 0 && e.l3 == 0 }

// lineTable is an open-addressed hash table from line address to the
// line's presence entry, with linear probing and backward-shift deletion. A
// custom table rather than a Go map because it sits on the miss path of
// every access: probes must not hash through runtime map machinery or
// allocate per line. Entries exist only for lines cached somewhere, so
// occupancy tracks live cache contents, not the address space.
type lineTable struct {
	keys []uint64    // line address + 1; 0 marks an empty slot
	ents []presEntry // parallel to keys
	mask uint64      // len(keys) - 1
	n    int         // occupied slots
	peak int
}

const lineTableMinSize = 256

// tablePool parks the slot arrays of released presence tables, so a
// steady stream of jobs does not regrow 256 → working-set slots each time.
// A table's capacity is unobservable — savePres sorts, peak counts entries
// — so any parked one serves any hierarchy.
var tablePool sync.Pool

// init readies an empty table: a parked one when there is one, else one
// of the minimum size.
func (t *lineTable) init() {
	if p, ok := tablePool.Get().(*lineTable); ok {
		*t = *p
		return
	}
	*t = lineTable{
		keys: make([]uint64, lineTableMinSize),
		ents: make([]presEntry, lineTableMinSize),
		mask: lineTableMinSize - 1,
	}
}

// clear empties the table and keeps its capacity. Only the keys mark a
// slot occupied; ensure zeroes an entry when it claims the slot.
func (t *lineTable) clear() {
	clear(t.keys)
	t.n = 0
}

// release parks the cleared table for the next init and leaves t unusable.
func (t *lineTable) release() {
	if t.keys == nil {
		return
	}
	t.clear()
	t.peak = 0
	p := *t
	*t = lineTable{}
	tablePool.Put(&p)
}

// lineKey maps a line address to a nonzero table key. Lines are multiples
// of the line size, so +1 never collides with another line's key.
func lineKey(line memory.Addr) uint64 { return uint64(line) + 1 }

// slot hashes a key to its home slot (Fibonacci hashing).
func (t *lineTable) slot(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> 32 & t.mask
}

// find returns the entry for the line, or nil. The pointer is valid only
// until the next insert or delete.
func (t *lineTable) find(line memory.Addr) *presEntry {
	k := lineKey(line)
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return &t.ents[i]
		case 0:
			return nil
		}
	}
}

// ensure returns the entry for the line, creating a zero entry if absent.
// The pointer is valid only until the next insert or delete.
func (t *lineTable) ensure(line memory.Addr) *presEntry {
	k := lineKey(line)
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return &t.ents[i]
		case 0:
			// Grow at 50% load: probe chains stay short, and the table is
			// tiny next to the caches it mirrors.
			if uint64(t.n)*2 >= uint64(len(t.keys)) {
				t.grow()
				return t.ensure(line)
			}
			t.keys[i] = k
			t.ents[i] = presEntry{}
			t.n++
			if t.n > t.peak {
				t.peak = t.n
			}
			return &t.ents[i]
		}
	}
}

func (t *lineTable) grow() {
	oldKeys, oldEnts := t.keys, t.ents
	size := uint64(len(oldKeys)) * 2
	t.keys = make([]uint64, size)
	t.ents = make([]presEntry, size)
	t.mask = size - 1
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := t.slot(k)
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.ents[j] = oldEnts[i]
	}
}

// drop removes the line's entry, backward-shifting the probe cluster so
// lookups stay tombstone-free. Callers drop an entry once it records no
// holder. Dropping an absent line is a no-op.
func (t *lineTable) drop(line memory.Addr) {
	k := lineKey(line)
	i := t.slot(k)
	for t.keys[i] != k {
		if t.keys[i] == 0 {
			return
		}
		i = (i + 1) & t.mask
	}
	t.n--
	j := i
	for {
		j = (j + 1) & t.mask
		if t.keys[j] == 0 {
			break
		}
		home := t.slot(t.keys[j])
		// The entry at j may move to i only if its home slot lies
		// cyclically at or before i (otherwise a lookup starting at home
		// would stop early at the vacated slot).
		if (i-home)&t.mask <= (j-home)&t.mask {
			t.keys[i] = t.keys[j]
			t.ents[i] = t.ents[j]
			i = j
		}
	}
	t.keys[i] = 0
}

// forEach visits every tracked line.
func (t *lineTable) forEach(f func(line memory.Addr, e *presEntry)) {
	for i, k := range t.keys {
		if k != 0 {
			f(memory.Addr(k-1), &t.ents[i])
		}
	}
}

// DirectoryLines returns how many lines the coherence directory currently
// tracks (0 in broadcast mode) — the presence table's occupancy. L2/L3
// inclusion of the L1s means every cached line appears here.
func (h *Hierarchy) DirectoryLines() int {
	if h.mode != CoherenceDirectory {
		return 0
	}
	return h.pres.n
}

// DirectoryPeakLines returns the largest occupancy the directory reached.
func (h *Hierarchy) DirectoryPeakLines() int {
	if h.mode != CoherenceDirectory {
		return 0
	}
	return h.pres.peak
}

// SnoopProbesAvoided returns how many individual cache probes (L1/L2/L3
// set scans) the directory answered from its presence bits instead of
// issuing, relative to what the broadcast protocol would have scanned for
// the same access stream. Always 0 in broadcast mode.
func (h *Hierarchy) SnoopProbesAvoided() uint64 {
	s := h.probesAvoided
	for i := range h.lanes {
		s += h.lanes[i].probesAvoided
	}
	return s
}

// Coherence returns the mode the hierarchy is actually running (a
// directory request on a machine wider than 64 chips falls back to
// broadcast).
func (h *Hierarchy) Coherence() CoherenceMode { return h.mode }

// CheckDirectory verifies the hierarchy's invariants against a
// ground-truth scan of every cache's contents. In both coherence modes
// the L1s must sit under their L2s (checkL1s). In directory mode the
// presence table must also correspond exactly to the valid L2/L3 lines
// and vice versa, and every mailbox must be empty. Tests and the fuzz
// target call it between accesses (i.e. at barrier boundaries), and
// RestoreState refuses a state that fails it; it is O(total cache
// capacity).
func (h *Hierarchy) CheckDirectory() error {
	if err := h.checkL1s(); err != nil {
		return err
	}
	if h.mode != CoherenceDirectory {
		return nil
	}
	type truthEntry struct {
		l1, l2, l3 uint64 // chips holding the line at each level
	}
	truth := make(map[memory.Addr]*truthEntry)
	ensure := func(line memory.Addr) *truthEntry {
		e := truth[line]
		if e == nil {
			e = &truthEntry{}
			truth[line] = e
		}
		return e
	}
	for core, c := range h.l1 {
		chip := core / h.topo.CoresPerChip
		c.ForEachLine(func(line memory.Addr, _ State) {
			ensure(line).l1 |= 1 << uint(chip)
		})
	}
	for chip, c := range h.l2 {
		chip := chip
		c.ForEachLine(func(line memory.Addr, _ State) {
			ensure(line).l2 |= 1 << uint(chip)
		})
	}
	for chip, c := range h.l3 {
		chip := chip
		c.ForEachLine(func(line memory.Addr, _ State) {
			ensure(line).l3 |= 1 << uint(chip)
		})
	}
	var err error
	h.pres.forEach(func(line memory.Addr, got *presEntry) {
		if err != nil {
			return
		}
		want := truth[line]
		if want == nil {
			err = fmt.Errorf("cache: presence table tracks line %#x {l2:%#x l3:%#x} that no cache holds",
				uint64(line), got.l2, got.l3)
			return
		}
		if got.l2 != want.l2 || got.l3 != want.l3 {
			err = fmt.Errorf("cache: line %#x presence {l2:%#x l3:%#x} != scan {l2:%#x l3:%#x l1:%#x}",
				uint64(line), got.l2, got.l3, want.l2, want.l3, want.l1)
		}
	})
	if err != nil {
		return err
	}
	for line, want := range truth {
		if h.pres.find(line) == nil {
			return fmt.Errorf("cache: caches hold line %#x {l1:%#x l2:%#x l3:%#x} the presence table does not track",
				uint64(line), want.l1, want.l2, want.l3)
		}
	}
	if len(truth) != h.pres.n {
		return fmt.Errorf("cache: presence table tracks %d lines, caches hold %d", h.pres.n, len(truth))
	}
	// mailboxes must be empty between barriers.
	for chip := range h.lanes {
		if len(h.lanes[chip].ops) != 0 {
			return fmt.Errorf("cache: chip %d lane has %d unapplied coherence ops", chip, len(h.lanes[chip].ops))
		}
	}
	return nil
}

// checkL1s verifies, in either coherence mode, that every L1 copy sits
// under its own chip's L2 copy (inclusion — the reason invalidating a line
// on its holder chips reaches every L1 copy) and that an L1 Modified copy
// sits under a Modified one (the access walk's write hit on a Modified L1
// line rewrites neither cache).
func (h *Hierarchy) checkL1s() error {
	var err error
	for core, c := range h.l1 {
		chip := core / h.topo.CoresPerChip
		c.ForEachLine(func(line memory.Addr, st State) {
			if err != nil {
				return
			}
			switch l2 := h.l2[chip].Peek(line); {
			case l2 == Invalid:
				err = fmt.Errorf("cache: line %#x is in core %d's L1 but not in chip %d's L2 (inclusion)",
					uint64(line), core, chip)
			case st == Modified && l2 != Modified:
				err = fmt.Errorf("cache: line %#x is Modified in core %d's L1 but %v in chip %d's L2",
					uint64(line), core, l2, chip)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// holderChips returns the chips holding the line in L2 or L3 per the
// presence table, excluding except.
func holderChips(e *presEntry, except int) uint64 {
	return (e.l2 | e.l3) &^ (1 << uint(except))
}
