package cache

import (
	"math/bits"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// This file implements the deferred slice-barrier coherence model that
// makes chip-parallel simulation deterministic.
//
// Every chip owns a Lane: the only handle through which that chip's CPUs
// access the hierarchy, in either coherence mode, and the home of the one
// L1 -> L2 -> L3 -> snoop -> memory walk (Lane.access). A lane may
// immediately read and mutate chip-local state — the L1s of its own
// cores, its own L2 and victim L3 — because no other lane ever touches
// them mid-slice. In directory mode anything that crosses a chip boundary
// (remote invalidations, downgrades, and the presence-table updates that
// make a fill visible to other chips' snoops) is queued as a mailbox op
// instead, and cross-chip *reads* (snoops) are answered from the presence
// table, which is frozen during a slice: it is only written when the
// mailboxes drain. Broadcast mode has no table and no mailbox: the same
// walk scans and mutates the other chips' caches on the spot, so its
// lanes must be driven serially (Hierarchy.Access).
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
// The drain is that canonical loop and nothing else: applyLane walks one
// mailbox op by op, SliceBarrier calls it for every chip in order, and
// Hierarchy.Access calls it for the one lane it just drove. A batched
// variant (gather, sort by line, apply per-line runs, replay the
// occupancy peak) was measured at two-thirds of a deferred round's CPU
// and removed (CHANGES.md, PR 21).
//
// The classic serial protocol is the degenerate case: Hierarchy.Access
// runs one lane access followed immediately by a one-lane barrier, which
// makes every op visible before the next access. Access-for-access that
// is observably identical to broadcast mode, and both are differentially
// pinned against the pre-merge broadcast walk kept in
// broadcastref_test.go.

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
	// opFillL2 publishes that the issuing chip's L2 now holds the line.
	// Conflicting same-slice fills are arbitrated here.
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
	chip   int16  // opDowngradeChip: target chip
	probes uint16 // opInvalidateRemote: own-chip probes already issued
}

// Lane is one chip's access port into the hierarchy. In directory mode
// distinct lanes may be driven from distinct goroutines within a slice;
// SliceBarrier must be called from a single goroutine with all lanes
// quiescent.
type Lane struct {
	h    *Hierarchy
	chip int

	// ops is the outgoing coherence mailbox, drained at the barrier.
	// Always empty in broadcast mode.
	ops []cohOp

	// Chip-local counters, summed by the Hierarchy getters.
	probesAvoided     uint64
	invalidationsSent uint64
	upgrades          uint64
	writebacks        uint64
	srcCounts         [NumSources]uint64
	srcCycles         [NumSources]uint64
}

// Lane returns the access port for the given chip. Only directory-mode
// lanes defer (and so may run concurrently): the broadcast protocol
// probes other chips' caches synchronously.
func (h *Hierarchy) Lane(chip int) *Lane { return &h.lanes[chip] }

// Access performs one data access by a CPU of this lane's chip, returning
// how it was satisfied. In directory mode cross-chip effects become
// visible at the next SliceBarrier.
func (l *Lane) Access(cpu topology.CPUID, addr memory.Addr, write bool) AccessResult {
	res := l.access(cpu, addr, write)
	l.srcCounts[res.Source]++
	l.srcCycles[res.Source] += res.Cycles
	return res
}

// access is the one walk down the Figure 1 ladder. The coherence modes
// differ only inside snoop, invalidateOthers, downgrade and publish.
func (l *Lane) access(cpu topology.CPUID, addr memory.Addr, write bool) AccessResult {
	h := l.h
	line := memory.LineOf(addr)
	core := int(h.cpuCore[cpu])
	chip := l.chip

	// L1 probe. Each level's set is probed once: a hit returns its way,
	// and a write rewrites that way's state in place. invalidateOthers
	// never touches the issuing core's L1 or its chip's L2, so the way
	// stays valid across it.
	if way, st := h.l1[core].lookupWay(line); st != Invalid {
		// A write to a line the L1 already holds Modified changes nothing:
		// an L1 Modified copy always sits under a Modified L2 copy
		// (CheckDirectory enforces it on every restored state).
		if write && st != Modified {
			if st == Shared {
				// Write upgrade: invalidate every other copy in the machine.
				l.upgrades++
				l.invalidateOthers(line, core)
			}
			h.l1[core].setWayState(way, Modified)
			h.l2[chip].SetState(line, Modified)
		}
		return AccessResult{Line: line, Source: SrcL1, Cycles: h.lat.L1Hit}
	}

	// L2 probe (chip-local). L1 fills evict clean: the L2 above is
	// inclusive, so the data survives.
	if way, st := h.l2[chip].lookupWay(line); st != Invalid {
		newState := st
		if write {
			if st == Shared {
				l.upgrades++
				l.invalidateOthers(line, core)
			}
			newState = Modified
			h.l2[chip].setWayState(way, Modified)
		}
		h.l1[core].Insert(line, newState)
		return AccessResult{Line: line, Source: SrcL2, Cycles: h.lat.L2Hit, L1Miss: true}
	}

	// L3 probe (chip-local victim cache: a hit moves the line back to L2).
	if st := h.l3[chip].Invalidate(line); st != Invalid {
		l.publish(cohOp{line: line, kind: opClearL3})
		newState := st
		if write {
			if st == Shared {
				l.upgrades++
				l.invalidateOthers(line, core)
			}
			newState = Modified
		}
		l.fillL2(line, newState)
		h.l1[core].Insert(line, newState)
		return AccessResult{Line: line, Source: SrcL3, Cycles: h.lat.L3Hit, L1Miss: true}
	}

	// Cross-chip snoop: another chip's L2, then another chip's L3.
	remoteChip, remoteSrc := l.snoop(line)
	if remoteSrc != SrcMemory {
		var newState State
		if write {
			// Read-with-intent-to-modify: invalidate every remote copy.
			l.invalidateOthers(line, core)
			newState = Modified
		} else {
			// Remote sharer keeps a Shared copy; we take one too.
			l.downgrade(line, remoteChip)
			newState = Shared
		}
		l.fillL2(line, newState)
		h.l1[core].Insert(line, newState)
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
	l.fillL2(line, st)
	h.l1[core].Insert(line, st)
	src, lat := SrcMemory, h.lat.Memory
	if h.nodes != nil && h.lat.RemoteMemory != 0 && h.nodes.NodeOf(line)%h.topo.Chips != chip {
		src, lat = SrcRemoteMemory, h.lat.RemoteMemory
	}
	return AccessResult{Line: line, Source: src, Cycles: lat, L1Miss: true}
}

// publish queues a presence-table update for the barrier. Broadcast mode
// keeps no table, so there is nothing to tell it.
func (l *Lane) publish(op cohOp) {
	if l.h.mode == CoherenceDirectory {
		l.ops = append(l.ops, op)
	}
}

// snoop looks for the line on any other chip and returns the lowest-index
// chip holding it in L2, else in L3 (the point-to-point fabric prefers
// the faster source), else SrcMemory. Directory mode answers from the
// presence table, which is written only at barriers, so concurrent lanes
// read a consistent frozen snapshot; broadcast mode scans the caches.
func (l *Lane) snoop(line memory.Addr) (int, Source) {
	h := l.h
	if h.mode == CoherenceBroadcast {
		for chip := range h.l2 {
			if chip != l.chip && h.l2[chip].Peek(line) != Invalid {
				return chip, SrcRemoteL2
			}
		}
		for chip := range h.l3 {
			if chip != l.chip && h.l3[chip].Peek(line) != Invalid {
				return chip, SrcRemoteL3
			}
		}
		return -1, SrcMemory
	}
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

// invalidateOthers removes every cached copy of the line outside the
// requesting core's L1 and the requesting chip's L2/L3. Directory mode
// probes the chip's own other L1s now and leaves the other chips to the
// barrier, whose op carries how many of those probes found the line for
// the probe accounting; broadcast mode scans every other cache now.
func (l *Lane) invalidateOthers(line memory.Addr, exceptCore int) {
	h := l.h
	if h.mode == CoherenceDirectory {
		found := h.invalidateL1s(line, l.chip, exceptCore)
		l.invalidationsSent += found
		l.ops = append(l.ops, cohOp{line: line, kind: opInvalidateRemote, probes: uint16(found)})
		return
	}
	for core := range h.l1 {
		if core != exceptCore && h.l1[core].Invalidate(line) != Invalid {
			l.invalidationsSent++
		}
	}
	for chip := range h.l2 {
		if chip == l.chip {
			continue
		}
		if h.l2[chip].Invalidate(line) != Invalid {
			l.invalidationsSent++
		}
		if h.l3[chip].Invalidate(line) != Invalid {
			l.invalidationsSent++
		}
	}
}

// downgrade moves the snooped chip's copies of the line to Shared (a read
// snoop hit): at the barrier in directory mode, now in broadcast mode.
func (l *Lane) downgrade(line memory.Addr, chip int) {
	h := l.h
	if h.mode == CoherenceDirectory {
		l.ops = append(l.ops, cohOp{line: line, kind: opDowngradeChip, chip: int16(chip)})
		return
	}
	h.l2[chip].Downgrade(line)
	h.l3[chip].Downgrade(line)
	h.downgradeL1s(line, chip)
}

// fillL2 inserts the line into this chip's L2, spilling any eviction into
// the chip's victim L3 and maintaining L1 inclusion for evicted lines.
// The presence-table updates are queued in the exact order the serial
// protocol issued them, so occupancy (and its peak) evolves identically.
func (l *Lane) fillL2(line memory.Addr, st State) {
	h, chip := l.h, l.chip
	evicted, evictedState, didEvict := h.l2[chip].Insert(line, st)
	l.publish(cohOp{line: line, kind: opFillL2})
	if !didEvict {
		return
	}
	l.publish(cohOp{line: evicted, kind: opClearL2})
	// Victim L3 receives the evicted line; what the L3 itself evicts
	// leaves the cache system, and dirty victims go back to memory.
	if l3Victim, l3State, l3Evict := h.l3[chip].Insert(evicted, evictedState); l3Evict {
		l.publish(cohOp{line: l3Victim, kind: opClearL3})
		if l3State == Modified {
			l.writebacks++
		}
	}
	l.publish(cohOp{line: evicted, kind: opSetL3})
	// Inclusion: an L2 eviction must purge the chip's L1s so a remote
	// chip's snoop (which only probes L2/L3) can never miss a live copy.
	found := h.invalidateL1s(evicted, chip, -1)
	if h.mode == CoherenceDirectory {
		l.probesAvoided += uint64(h.topo.CoresPerChip) - found
	}
}

// invalidateL1s invalidates the line in the L1s of one chip's cores,
// skipping exceptCore (-1 for none), and returns how many held it. A chip
// has few cores under its L2 (two on every machine the paper uses), so
// "which of them hold the line" is asked of the L1s themselves rather
// than of a second per-chip table (DESIGN.md §5).
func (h *Hierarchy) invalidateL1s(line memory.Addr, chip, exceptCore int) uint64 {
	var found uint64
	per := h.topo.CoresPerChip
	for core := chip * per; core < (chip+1)*per; core++ {
		if core != exceptCore && h.l1[core].Invalidate(line) != Invalid {
			found++
		}
	}
	return found
}

// downgradeL1s moves the line to Shared in the L1s of one chip's cores
// and returns how many held it.
func (h *Hierarchy) downgradeL1s(line memory.Addr, chip int) uint64 {
	var found uint64
	per := h.topo.CoresPerChip
	for core := chip * per; core < (chip+1)*per; core++ {
		if h.l1[core].Downgrade(line) {
			found++
		}
	}
	return found
}

// SliceBarrier drains every lane's coherence mailbox in canonical chip
// order, making all cross-chip effects of the finished slice visible. Must
// be called with no lane access in flight. A no-op in broadcast mode
// (whose mailboxes stay empty).
func (h *Hierarchy) SliceBarrier() {
	for chip := range h.lanes {
		h.applyLane(&h.lanes[chip])
	}
}

// applyLane drains one lane's mailbox in queue order.
func (h *Hierarchy) applyLane(l *Lane) {
	for i := range l.ops {
		h.applyOp(l.chip, &l.ops[i])
	}
	l.ops = l.ops[:0]
}

// applyOp applies one coherence op issued by the given chip.
func (h *Hierarchy) applyOp(chip int, op *cohOp) {
	line, bit := op.line, uint64(1)<<uint(chip)
	switch op.kind {
	case opInvalidateRemote:
		h.applyInvalidateRemote(chip, line, uint64(op.probes))
	case opDowngradeChip:
		h.applyDowngrade(line, int(op.chip))
	case opFillL2:
		h.applyFill(chip, line)
	case opClearL2:
		if e := h.pres.find(line); e != nil {
			e.l2 &^= bit
			h.dropIfEmpty(line, e)
		}
	case opSetL3:
		// Publish only if the victim copy is still there: an earlier op
		// of this barrier may have invalidated it through the chip's
		// pre-slice L3 presence bit (see applyFill for the L2 analogue).
		if h.l3[chip].Peek(line) != Invalid {
			h.pres.ensure(line).l3 |= bit
		}
	case opClearL3:
		if e := h.pres.find(line); e != nil {
			e.l3 &^= bit
			h.dropIfEmpty(line, e)
		}
	}
}

// dropIfEmpty removes the line's presence entry once it records no holder.
func (h *Hierarchy) dropIfEmpty(line memory.Addr, e *presEntry) {
	if e.empty() {
		h.pres.drop(line)
	}
}

// applyInvalidateRemote removes every cached copy of the line outside the
// issuing chip, visiting only the holders the directory records, and
// settles the broadcast-vs-directory probe accounting (ownProbes L1
// probes were already issued chip-locally at queue time).
func (h *Hierarchy) applyInvalidateRemote(except int, line memory.Addr, ownProbes uint64) {
	broadcastProbes := uint64(len(h.l1) - 1 + 2*(len(h.l2)-1))
	probes := ownProbes
	if e := h.pres.find(line); e != nil {
		probes += h.invalidateHolders(line, e, except)
		h.dropIfEmpty(line, e)
	}
	if broadcastProbes > probes {
		h.probesAvoided += broadcastProbes - probes
	}
}

// invalidateHolders invalidates every copy of the line on the chips the
// presence entry records outside the excepted chip — their L1s, and the
// L2s and L3s whose bits are set — clearing those bits. It returns how
// many cache probes that is worth in the probe accounting: L2/L3 probes
// issued plus L1 probes that found the line. The caller drops the
// presence entry if the line is gone.
func (h *Hierarchy) invalidateHolders(line memory.Addr, e *presEntry, except int) uint64 {
	var probes uint64
	for m := holderChips(e, except); m != 0; m &= m - 1 {
		chip := bits.TrailingZeros64(m)
		found := h.invalidateL1s(line, chip, -1)
		probes += found
		h.invalidationsSent += found
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

// applyDowngrade moves the line to Shared in the given chip's caches with
// the usual probe accounting. Downgrades never change presence.
func (h *Hierarchy) applyDowngrade(line memory.Addr, chip int) {
	broadcastProbes := uint64(2 + h.topo.CoresPerChip)
	probes := h.downgradeChipCopies(line, chip, h.pres.find(line))
	if broadcastProbes > probes {
		h.probesAvoided += broadcastProbes - probes
	}
}

// downgradeChipCopies moves one chip's copies of the line to Shared — the
// L2/L3 the presence entry records, and its L1s — and returns how many
// probes that is worth (as in invalidateHolders). Presence bits are
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
	return probes + h.downgradeL1s(line, chip)
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
// dead fill publishes nothing; its L1 copies were already torn down by
// the invalidation that killed it.
func (h *Hierarchy) applyFill(chip int, line memory.Addr) {
	st := h.l2[chip].Peek(line)
	if st == Invalid {
		return
	}
	e := h.pres.find(line)
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
			// the presence table; downgrade them directly.
			h.l2[chip].Downgrade(line)
			h.downgradeL1s(line, chip)
		}
	}
	if e == nil {
		e = h.pres.ensure(line)
	}
	e.l2 |= 1 << uint(chip)
}
