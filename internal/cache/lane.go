package cache

import (
	"math/bits"
	"slices"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// This file implements the deferred slice-barrier coherence model that
// makes chip-parallel simulation deterministic.
//
// Every chip owns a Lane: the only handle through which that chip's CPUs
// access the hierarchy during a slice. A lane may immediately read and
// mutate chip-local state — the L1s of its own cores, its own L2 and
// victim L3, and its own directory shard — because no other lane ever
// touches them mid-slice. Anything that crosses a chip boundary (remote
// invalidations, downgrades, and the presence-table updates that make a
// fill visible to other chips' snoops) is queued as a mailbox op instead.
// Cross-chip *reads* (snoops) are answered from the presence table, which
// is frozen during a slice: it is only written when the mailboxes drain.
//
// At the end of a slice the driver calls Hierarchy.SliceBarrier, which
// drains every lane's mailbox with cross-chip effects applied *as if*
// serially in canonical chip order (chip 0 first, queue order within a
// chip). Because each lane's queue content depends only on the frozen
// pre-slice state and that lane's own access stream, and the barrier
// order is fixed, the post-barrier state is a pure function of the
// pre-slice state — independent of how many OS threads ran the lanes or
// in what real-time order they finished. That is the determinism
// argument, spelled out in DESIGN.md §7.
//
// The barrier does not literally walk the queues op by op: it gathers
// every lane's ops into one buffer, tags each with its canonical
// sequence number, sorts by (line, seq) and applies per-line runs, so
// the directory is probed once per line touched rather than once per op
// and all of a line's barrier work happens while its entry is hot.
// Barrier ops on *distinct* lines commute — each touches only its own
// line's presence entry, shard records and cached copies, and never
// inserts into a cache (no LRU or stamp movement) — so only the
// within-line order matters, and the seq tiebreak preserves exactly
// that. The one thing reordering could distort, the presence table's
// peak-occupancy high-water mark, is reconstructed exactly by replaying
// the per-op occupancy deltas in seq order (deltas are order-independent
// because within-line order is preserved). The op-by-op reference drain
// is a test fixture (sliceBarrierSerial in drain_test.go), and the
// batched drain is differentially pinned against it.
//
// The classic serial protocol is the degenerate case: Hierarchy.Access
// runs one lane access followed immediately by a one-lane barrier, which
// makes every op visible before the next access exactly like the old
// immediate directory implementation (and is differentially tested
// against broadcast mode to stay byte-identical with it).

// opKind enumerates the cross-chip coherence mailbox operations.
type opKind uint8

const (
	// opInvalidateRemote invalidates every copy of the line outside the
	// issuing chip (write upgrade / read-with-intent-to-modify). The
	// issuing chip's own cores were already probed at queue time; probes
	// carries how many, for the broadcast-vs-directory probe accounting.
	opInvalidateRemote opKind = iota
	// opDowngradeChip moves one chip's copies of the line to Shared
	// (a read snoop hit on that chip).
	opDowngradeChip
	// opFillL2 publishes that the issuing chip's L2 now holds the line in
	// the given state. Conflicting same-slice fills are arbitrated here.
	opFillL2
	// opClearL2 publishes that the issuing chip's L2 evicted the line.
	opClearL2
	// opSetL3 publishes that the issuing chip's victim L3 accepted the line.
	opSetL3
	// opClearL3 publishes that the issuing chip's victim L3 gave up the line.
	opClearL3
)

// cohOp is one queued cross-chip coherence action.
type cohOp struct {
	line   memory.Addr
	kind   opKind
	state  State  // opFillL2: the fill state
	chip   int16  // opDowngradeChip: target chip
	probes uint16 // opInvalidateRemote: own-chip probes already issued
}

// Lane is one chip's access port into the hierarchy under the deferred
// coherence model. Distinct lanes may be driven from distinct goroutines
// within a slice; SliceBarrier must be called from a single goroutine
// with all lanes quiescent.
type Lane struct {
	h    *Hierarchy
	chip int

	// shard is this chip's slice of the coherence directory: per line,
	// which of the chip's cores hold it in L1 and which core owns it.
	shard lineTable[shardEntry]

	// ops is the outgoing coherence mailbox, drained at the barrier.
	ops []cohOp

	// Chip-local counter shards, merged by the Hierarchy getters.
	probesAvoided     uint64
	invalidationsSent uint64
	upgrades          uint64
	writebacks        uint64
	srcCounts         [NumSources]uint64
	srcCycles         [NumSources]uint64
}

// Lane returns the access port for the given chip. Valid only in
// directory mode (the broadcast reference protocol needs to probe other
// chips' caches synchronously and cannot defer).
func (h *Hierarchy) Lane(chip int) *Lane { return &h.lanes[chip] }

// Access performs one data access by a CPU of this lane's chip under
// deferred coherence, returning how it was satisfied. Cross-chip effects
// become visible at the next SliceBarrier.
func (l *Lane) Access(cpu topology.CPUID, addr memory.Addr, write bool) AccessResult {
	res := l.access(cpu, addr, write)
	l.srcCounts[res.Source]++
	l.srcCycles[res.Source] += res.Cycles
	return res
}

func (l *Lane) access(cpu topology.CPUID, addr memory.Addr, write bool) AccessResult {
	h := l.h
	line := memory.LineOf(addr)
	core := h.topo.CoreOf(cpu)
	chip := l.chip

	// L1 probe.
	if st := h.l1[core].Lookup(line); st != Invalid {
		if write && st == Shared {
			// Write upgrade: invalidate every other copy in the machine.
			l.upgrades++
			probes := l.invalidateOwnChip(line, core)
			l.queueOp(cohOp{line: line, kind: opInvalidateRemote, probes: probes})
			h.l1[core].SetState(line, Modified)
			h.l2[chip].SetState(line, Modified)
		} else if write {
			h.l1[core].SetState(line, Modified)
			h.l2[chip].SetState(line, Modified)
		}
		if write {
			l.setOwner(line, core)
		}
		return AccessResult{Line: line, Source: SrcL1, Cycles: h.lat.L1Hit}
	}

	// L2 probe (chip-local).
	if st := h.l2[chip].Lookup(line); st != Invalid {
		newState := st
		if write {
			if st == Shared {
				l.upgrades++
				probes := l.invalidateOwnChip(line, core)
				l.queueOp(cohOp{line: line, kind: opInvalidateRemote, probes: probes})
			}
			newState = Modified
			h.l2[chip].SetState(line, Modified)
		}
		l.fillL1(core, line, newState)
		return AccessResult{Line: line, Source: SrcL2, Cycles: h.lat.L2Hit, L1Miss: true}
	}

	// L3 probe (chip-local victim cache: a hit moves the line back to L2).
	if st := h.l3[chip].Peek(line); st != Invalid {
		h.l3[chip].Invalidate(line)
		l.queueOp(cohOp{line: line, kind: opClearL3})
		newState := st
		if write {
			if st == Shared {
				l.upgrades++
				probes := l.invalidateOwnChip(line, core)
				l.queueOp(cohOp{line: line, kind: opInvalidateRemote, probes: probes})
			}
			newState = Modified
		}
		l.fillL2(core, line, newState)
		l.fillL1(core, line, newState)
		return AccessResult{Line: line, Source: SrcL3, Cycles: h.lat.L3Hit, L1Miss: true}
	}

	// Cross-chip snoop, answered from the frozen presence table.
	remoteChip, remoteSrc := l.snoopFrozen(line)
	if remoteSrc != SrcMemory {
		var newState State
		if write {
			// Read-with-intent-to-modify: invalidate every remote copy.
			probes := l.invalidateOwnChip(line, core)
			l.queueOp(cohOp{line: line, kind: opInvalidateRemote, probes: probes})
			newState = Modified
		} else {
			// Remote sharer keeps a Shared copy; we take one too.
			l.queueOp(cohOp{line: line, kind: opDowngradeChip, chip: int16(remoteChip)})
			newState = Shared
		}
		l.fillL2(core, line, newState)
		l.fillL1(core, line, newState)
		lat := h.lat.RemoteL2
		if remoteSrc == SrcRemoteL3 {
			lat = h.lat.RemoteL3
		}
		return AccessResult{Line: line, Source: remoteSrc, Cycles: lat, L1Miss: true}
	}

	// Memory fill. Under NUMA configuration the line's home node decides
	// whether this is a local or remote memory access.
	st := Exclusive
	if write {
		st = Modified
	}
	l.fillL2(core, line, st)
	l.fillL1(core, line, st)
	src, lat := SrcMemory, h.lat.Memory
	if h.nodes != nil && h.lat.RemoteMemory != 0 && h.nodes.NodeOf(line)%h.topo.Chips != chip {
		src, lat = SrcRemoteMemory, h.lat.RemoteMemory
	}
	return AccessResult{Line: line, Source: src, Cycles: lat, L1Miss: true}
}

func (l *Lane) queueOp(op cohOp) { l.ops = append(l.ops, op) }

// snoopFrozen answers a cross-chip snoop from the presence table: the
// lowest-index chip other than ours holding the line in L2, else in L3,
// else memory — the order the broadcast scan resolves in. The table is
// written only at barriers, so concurrent lanes read a consistent frozen
// snapshot.
func (l *Lane) snoopFrozen(line memory.Addr) (int, Source) {
	h := l.h
	l.probesAvoided += uint64(2 * (len(h.l2) - 1))
	e := h.pres.find(line)
	if e == nil {
		return -1, SrcMemory
	}
	if m := e.l2 &^ (1 << uint(l.chip)); m != 0 {
		return bits.TrailingZeros64(m), SrcRemoteL2
	}
	if m := e.l3 &^ (1 << uint(l.chip)); m != 0 {
		return bits.TrailingZeros64(m), SrcRemoteL3
	}
	return -1, SrcMemory
}

// invalidateOwnChip invalidates the line in the L1s of this chip's other
// cores (the chip-local half of an invalidate-others; the remote half is
// queued). Returns how many probes it issued, for the op's accounting.
func (l *Lane) invalidateOwnChip(line memory.Addr, exceptCore int) uint16 {
	e := l.shard.find(line)
	if e == nil {
		return 0
	}
	var probes uint16
	for m := e.l1 &^ (1 << uint(exceptCore)); m != 0; m &= m - 1 {
		core := bits.TrailingZeros64(m)
		probes++
		if l.h.l1[core].Invalidate(line) != Invalid {
			l.invalidationsSent++
		}
		e.l1 &^= 1 << uint(core)
		if int(e.owner) == core {
			e.owner = NoOwner
		}
	}
	if e.empty() {
		l.shard.drop(line)
	}
	return probes
}

// purgeOwnL1 invalidates this chip's L1 copies of an L2-evicted line (the
// inclusion purge), visiting only the cores the shard records as holders.
func (l *Lane) purgeOwnL1(line memory.Addr) {
	broadcastProbes := uint64(l.h.topo.CoresPerChip)
	var probes uint64
	if e := l.shard.find(line); e != nil {
		for m := e.l1; m != 0; m &= m - 1 {
			core := bits.TrailingZeros64(m)
			probes++
			l.h.l1[core].Invalidate(line)
			e.l1 &^= 1 << uint(core)
			if int(e.owner) == core {
				e.owner = NoOwner
			}
		}
		if e.empty() {
			l.shard.drop(line)
		}
	}
	l.probesAvoided += broadcastProbes - probes
}

// fillL1 inserts the line into a core's L1 and maintains the shard. L1
// evictions are clean drops: the L2 above it is (approximately)
// inclusive, so the data survives.
func (l *Lane) fillL1(core int, line memory.Addr, st State) {
	evicted, _, didEvict := l.h.l1[core].Insert(line, st)
	if didEvict {
		l.shardClearL1(evicted, core)
	}
	l.shardSetL1(line, core)
	if st == Modified {
		l.setOwner(line, core)
	}
}

// fillL2 inserts the line into this chip's L2, spilling any eviction into
// the chip's victim L3 and maintaining L1 inclusion for evicted lines.
// The presence-table updates are queued in the exact order the serial
// protocol issued them, so occupancy (and its peak) evolves identically.
func (l *Lane) fillL2(core int, line memory.Addr, st State) {
	chip := l.chip
	evicted, evictedState, didEvict := l.h.l2[chip].Insert(line, st)
	l.queueOp(cohOp{line: line, kind: opFillL2, state: st})
	if !didEvict {
		return
	}
	l.queueOp(cohOp{line: evicted, kind: opClearL2})
	// Victim L3 receives the evicted line; what the L3 itself evicts
	// leaves the cache system, and dirty victims go back to memory.
	if l3Victim, l3State, l3Evict := l.h.l3[chip].Insert(evicted, evictedState); l3Evict {
		l.queueOp(cohOp{line: l3Victim, kind: opClearL3})
		if l3State == Modified {
			l.writebacks++
		}
	}
	l.queueOp(cohOp{line: evicted, kind: opSetL3})
	// Inclusion: an L2 eviction must purge the chip's L1s so a remote
	// chip's snoop (which only probes L2/L3) can never miss a live copy.
	l.purgeOwnL1(evicted)
}

func (l *Lane) shardSetL1(line memory.Addr, core int) {
	e := l.shard.ensure(line)
	if e.l1 == 0 {
		// Fresh entry (empty entries are always dropped): initialize owner.
		e.owner = NoOwner
	}
	e.l1 |= 1 << uint(core)
}

func (l *Lane) shardClearL1(line memory.Addr, core int) {
	if e := l.shard.find(line); e != nil {
		e.l1 &^= 1 << uint(core)
		if int(e.owner) == core {
			e.owner = NoOwner
		}
		if e.empty() {
			l.shard.drop(line)
		}
	}
}

// setOwner records write ownership for a line the requesting core just
// made Modified in its L1.
func (l *Lane) setOwner(line memory.Addr, core int) {
	l.shard.ensure(line).owner = int8(core)
}

// drainOp is one gathered mailbox op in the batched barrier drain: a
// cohOp stamped with its issuing chip and its canonical sequence number
// (position in the chip-order, queue-order-within-chip serial drain).
type drainOp struct {
	line   memory.Addr
	seq    uint32
	kind   opKind
	state  State
	src    int16 // issuing chip
	tgt    int16 // opDowngradeChip: target chip
	probes uint16
}

// peakEvent records that the op at canonical position seq changed the
// presence table's occupancy by delta (always ±1). Replayed in seq order
// after a batched drain to reconstruct the canonical peak.
type peakEvent struct {
	seq   uint32
	delta int8
}

// SliceBarrier drains every lane's coherence mailbox, making all
// cross-chip effects of the finished slice visible — byte-identical to
// an op-by-op drain in canonical chip order (see the file comment for
// why the batched application commutes). Must be called with no lane
// access in flight. A no-op in broadcast mode (which has no lanes).
func (h *Hierarchy) SliceBarrier() {
	h.drain = h.drain[:0]
	h.peakEvents = h.peakEvents[:0]
	var seq uint32
	for chip := range h.lanes {
		l := &h.lanes[chip]
		for i := range l.ops {
			op := &l.ops[i]
			h.drain = append(h.drain, drainOp{
				line: op.line, seq: seq, kind: op.kind, state: op.state,
				src: int16(chip), tgt: op.chip, probes: op.probes,
			})
			seq++
		}
		l.ops = l.ops[:0]
	}
	if len(h.drain) == 0 {
		return
	}
	slices.SortFunc(h.drain, func(a, b drainOp) int {
		if a.line != b.line {
			if a.line < b.line {
				return -1
			}
			return 1
		}
		return int(a.seq) - int(b.seq)
	})
	n0, peak0 := h.pres.n, h.pres.peak
	for i := 0; i < len(h.drain); {
		line := h.drain[i].line
		// One directory probe per line run; ops thread the entry through.
		e := h.pres.find(line)
		for ; i < len(h.drain) && h.drain[i].line == line; i++ {
			op := &h.drain[i]
			before := h.pres.n
			e = h.applyOpE(int(op.src), line, op.kind, op.state, int(op.tgt), op.probes, e)
			if d := h.pres.n - before; d != 0 {
				h.peakEvents = append(h.peakEvents, peakEvent{seq: op.seq, delta: int8(d)})
			}
		}
	}
	// The sorted application reached the same final occupancy as the
	// canonical order (per-op deltas are order-independent across lines),
	// but may have visited a different high-water mark. Replay the deltas
	// in canonical order to restore the exact serial-drain peak.
	slices.SortFunc(h.peakEvents, func(a, b peakEvent) int { return int(a.seq) - int(b.seq) })
	n, peak := n0, peak0
	for _, ev := range h.peakEvents {
		n += int(ev.delta)
		if n > peak {
			peak = n
		}
	}
	h.pres.peak = peak
	h.drain = h.drain[:0]
	h.peakEvents = h.peakEvents[:0]
}

// applyLane drains one lane's mailbox in queue order. The immediate-mode
// Access path still drains this way — one lane with a handful of ops has
// nothing to batch.
func (h *Hierarchy) applyLane(l *Lane) {
	for i := range l.ops {
		op := &l.ops[i]
		var e *presEntry
		if op.kind != opSetL3 {
			// opSetL3 touches the table only when the victim copy is live,
			// and then through ensure; probing upfront would waste a scan.
			e = h.pres.find(op.line)
		}
		h.applyOpE(l.chip, op.line, op.kind, op.state, int(op.chip), op.probes, e)
	}
	l.ops = l.ops[:0]
}

// applyOpE applies one coherence op given the line's current presence
// entry (nil when absent) and returns the entry afterwards (nil when the
// op dropped it). Threading the entry through is what lets the batched
// drain amortize the directory probe across a line's whole run.
func (h *Hierarchy) applyOpE(chip int, line memory.Addr, kind opKind, st State, tgt int, probes uint16, e *presEntry) *presEntry {
	switch kind {
	case opInvalidateRemote:
		return h.applyInvalidateRemote(chip, line, uint64(probes), e)
	case opDowngradeChip:
		h.applyDowngrade(line, tgt, e)
	case opFillL2:
		return h.applyFill(chip, line, st, e)
	case opClearL2:
		if e != nil {
			e.l2 &^= 1 << uint(chip)
			if e.empty() {
				h.pres.drop(line)
				return nil
			}
		}
	case opSetL3:
		// Publish only if the victim copy is still there: an earlier op
		// of this barrier may have invalidated it through the chip's
		// pre-slice L3 presence bit (see applyFill for the L2 analogue).
		if h.l3[chip].Peek(line) != Invalid {
			if e == nil {
				e = h.pres.ensure(line)
			}
			e.l3 |= 1 << uint(chip)
		}
	case opClearL3:
		if e != nil {
			e.l3 &^= 1 << uint(chip)
			if e.empty() {
				h.pres.drop(line)
				return nil
			}
		}
	}
	return e
}

// applyInvalidateRemote removes every cached copy of the line outside the
// issuing chip, visiting only the holders the directory records, and
// settles the broadcast-vs-directory probe accounting (ownProbes L1
// probes were already issued chip-locally at queue time). The caller
// supplies the line's presence entry; the survivor (or nil) is returned.
func (h *Hierarchy) applyInvalidateRemote(except int, line memory.Addr, ownProbes uint64, e *presEntry) *presEntry {
	broadcastProbes := uint64(len(h.l1) - 1 + 2*(len(h.l2)-1))
	probes := ownProbes
	if e != nil {
		probes += h.invalidateHolders(line, e, except)
		if e.empty() {
			h.pres.drop(line)
			e = nil
		}
	}
	if broadcastProbes > probes {
		h.probesAvoided += broadcastProbes - probes
	}
	return e
}

// invalidateHolders invalidates every recorded copy of the line outside
// the excepted chip — remote L1s (via the holder chips' shards), L2s and
// L3s — clearing the corresponding presence bits. It returns how many
// cache probes it issued. The caller drops the presence entry if the line
// is gone.
func (h *Hierarchy) invalidateHolders(line memory.Addr, e *presEntry, except int) uint64 {
	var probes uint64
	for m := holderChips(e, except); m != 0; m &= m - 1 {
		chip := bits.TrailingZeros64(m)
		if sh := h.lanes[chip].shard.find(line); sh != nil {
			for cm := sh.l1; cm != 0; cm &= cm - 1 {
				core := bits.TrailingZeros64(cm)
				probes++
				if h.l1[core].Invalidate(line) != Invalid {
					h.invalidationsSent++
				}
			}
			h.lanes[chip].shard.drop(line)
		}
		bit := uint64(1) << uint(chip)
		if e.l2&bit != 0 {
			probes++
			if h.l2[chip].Invalidate(line) != Invalid {
				h.invalidationsSent++
			}
			e.l2 &^= bit
		}
		if e.l3&bit != 0 {
			probes++
			if h.l3[chip].Invalidate(line) != Invalid {
				h.invalidationsSent++
			}
			e.l3 &^= bit
		}
	}
	return probes
}

// applyDowngrade moves the line to Shared in the given chip's caches,
// touching only recorded holders, with the usual probe accounting. The
// caller supplies the line's presence entry (downgrades never change
// presence, so there is nothing to return).
func (h *Hierarchy) applyDowngrade(line memory.Addr, chip int, e *presEntry) {
	if chip < 0 {
		return
	}
	broadcastProbes := uint64(2 + h.topo.CoresPerChip)
	probes := h.downgradeChipCopies(line, chip, e)
	if broadcastProbes > probes {
		h.probesAvoided += broadcastProbes - probes
	}
}

// downgradeChipCopies moves one chip's recorded copies of the line to
// Shared and returns how many probes that took. Presence bits are
// unchanged (the chip keeps Shared copies).
func (h *Hierarchy) downgradeChipCopies(line memory.Addr, chip int, e *presEntry) uint64 {
	var probes uint64
	if e != nil {
		bit := uint64(1) << uint(chip)
		if e.l2&bit != 0 {
			probes++
			h.l2[chip].Downgrade(line)
		}
		if e.l3&bit != 0 {
			probes++
			h.l3[chip].Downgrade(line)
		}
	}
	if sh := h.lanes[chip].shard.find(line); sh != nil {
		for m := sh.l1; m != 0; m &= m - 1 {
			core := bits.TrailingZeros64(m)
			probes++
			h.l1[core].Downgrade(line)
			if int(sh.owner) == core {
				sh.owner = NoOwner
			}
		}
	}
	return probes
}

// applyFill publishes a chip's L2 fill in the presence table, arbitrating
// fills of the same line by different chips within one slice. The serial
// protocol never queues a conflicting fill (each access sees the previous
// one's barrier), so this arbitration only runs — deterministically, in
// canonical chip order — under parallel slices:
//
//   - A Modified fill that meets surviving holders is a write that raced
//     with other chips' copies: the writer wins the arbitration and the
//     other copies are invalidated, exactly as if the write had been
//     ordered after them. (Two conflicting same-slice write upgrades
//     therefore annihilate each other's copies; the later chip's write is
//     the one that sticks.)
//   - An Exclusive fill that meets holders means two chips each fetched
//     the line believing nobody held it: all copies — including the
//     filling chip's fresh one — settle in Shared, as if the fills had
//     been ordered back-to-back reads.
//   - A Shared fill co-exists with other holders by definition.
//
// The fill is published with the L2's state *now*, not the state at queue
// time: an earlier op of this same barrier may have downgraded the copy
// (another chip's read → it settles Shared) or invalidated it outright
// (another chip's conflicting write saw this chip's pre-slice presence
// bit — e.g. the line was evicted and re-fetched within the slice). A
// dead fill publishes nothing; its L1/shard records were already torn
// down by the invalidation that killed it.
//
// The caller supplies the line's presence entry; the published entry is
// returned (nil only when the fill was dead and the line untracked).
func (h *Hierarchy) applyFill(chip int, line memory.Addr, st State, e *presEntry) *presEntry {
	switch cur := h.l2[chip].Peek(line); cur {
	case Invalid:
		return e
	default:
		st = cur
	}
	bit := uint64(1) << uint(chip)
	if e != nil && holderChips(e, chip) != 0 {
		switch st {
		case Modified:
			h.invalidateHolders(line, e, chip)
			// The entry cannot be empty: the filling chip's bit is set next.
		case Exclusive:
			for m := e.l2 | e.l3; m != 0; m &= m - 1 {
				h.downgradeChipCopies(line, bits.TrailingZeros64(m), e)
			}
			// The filling chip's own fresh copies are not yet published in
			// the presence table; downgrade them directly (L1s via shard).
			h.l2[chip].Downgrade(line)
			if sh := h.lanes[chip].shard.find(line); sh != nil {
				for m := sh.l1; m != 0; m &= m - 1 {
					h.l1[bits.TrailingZeros64(m)].Downgrade(line)
				}
			}
		}
	}
	if e == nil {
		e = h.pres.ensure(line)
	}
	e.l2 |= bit
	return e
}
