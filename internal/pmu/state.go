package pmu

import (
	"fmt"

	"threadcluster/internal/cache"
	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
)

// SaveState appends the PMU's complete mutable state to the encoder:
// exact aggregate counts, per-slot programming metadata and values, the
// sampling register (with its validation-only provenance) and undrained
// interrupt cycles. Overflow handlers are closures and are not
// serialized — restore validates them against a PMU whose owner has
// already re-installed the same programming.
func (p *PMU) SaveState(e *snapbin.Enc) {
	p.flush()
	e.U32(uint32(NumEvents))
	for _, c := range p.counts {
		e.U64(c)
	}
	e.U32(uint32(NumPhysicalCounters))
	for i := range p.slots {
		s := &p.slots[i]
		e.Bool(s.programmed)
		e.U32(uint32(s.event))
		e.U64(s.value)
		e.U64(s.overflowAt)
		e.Bool(s.handler != nil)
	}
	e.U64(uint64(p.sdar.Line))
	e.Bool(p.sdar.Valid)
	e.U32(uint32(p.sdar.source))
	e.U64(p.interruptCycles)
}

// RestoreState overwrites the PMU's mutable state with a state saved by
// SaveState. Slot programming (which slots are programmed, with which
// event, and whether a handler is attached) must already match the saved
// state: the caller re-installs the monitoring configuration first, and
// this method then restores counter values and overflow thresholds
// without touching the live handler closures.
func (p *PMU) RestoreState(d *snapbin.Dec) error {
	if n := int(d.U32()); d.Err() == nil && n != NumEvents {
		return fmt.Errorf("pmu: snapshot has %d events, built with %d: %w", n, NumEvents, errs.ErrBadConfig)
	}
	var counts [NumEvents]uint64
	for i := range counts {
		counts[i] = d.U64()
	}
	if n := int(d.U32()); d.Err() == nil && n != NumPhysicalCounters {
		return fmt.Errorf("pmu: snapshot has %d counter slots, built with %d: %w", n, NumPhysicalCounters, errs.ErrBadConfig)
	}
	type slotState struct {
		programmed bool
		event      Event
		value      uint64
		overflowAt uint64
		hasHandler bool
	}
	var slots [NumPhysicalCounters]slotState
	for i := range slots {
		slots[i] = slotState{
			programmed: d.Bool(),
			event:      Event(d.U32()),
			value:      d.U64(),
			overflowAt: d.U64(),
			hasHandler: d.Bool(),
		}
	}
	line := memory.Addr(d.U64())
	valid := d.Bool()
	source := cache.Source(d.U32())
	interruptCycles := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	for i, st := range slots {
		cur := &p.slots[i]
		if st.programmed != cur.programmed ||
			(st.programmed && (st.event != cur.event || st.hasHandler != (cur.handler != nil))) {
			return fmt.Errorf("pmu: slot %d programming mismatch (snapshot %v/%v, machine %v/%v): %w",
				i, st.programmed, st.event, cur.programmed, cur.event, errs.ErrBadConfig)
		}
	}
	// The pending deltas predate the restored state; the multiplexer
	// still takes them, as it took every event observed before.
	p.flush()
	p.counts = counts
	for i, st := range slots {
		p.slots[i].value = st.value
		p.slots[i].overflowAt = st.overflowAt
	}
	p.reindex()
	p.sdar = SampledAddr{Line: line, Valid: valid, source: source}
	p.interruptCycles = interruptCycles
	return nil
}

// SaveState appends the multiplexer's rotation position and accumulated
// observations to the encoder. The group schedule itself is configuration
// the restoring caller rebuilds.
func (m *Multiplexer) SaveState(e *snapbin.Enc) {
	m.sync()
	e.U32(uint32(len(m.groups)))
	e.U32(uint32(m.active))
	e.U64(m.sliceLen)
	e.U64(m.sliceLeft)
	e.U32(uint32(NumEvents))
	for _, v := range m.observed {
		e.U64(v)
	}
	for _, v := range m.activeCyc {
		e.U64(v)
	}
	e.U64(m.totalCyc)
	e.U64(m.rotations)
}

// RestoreState overwrites the multiplexer's mutable state with a state
// saved by SaveState. The multiplexer must have been rebuilt with the
// same group schedule and slice length.
func (m *Multiplexer) RestoreState(d *snapbin.Dec) error {
	if n := d.U32(); d.Err() == nil && int(n) != len(m.groups) {
		return fmt.Errorf("pmu: snapshot multiplexer has %d groups, built with %d: %w", n, len(m.groups), errs.ErrBadConfig)
	}
	active := int(d.U32())
	sliceLen := d.U64()
	sliceLeft := d.U64()
	if n := int(d.U32()); d.Err() == nil && n != NumEvents {
		return fmt.Errorf("pmu: snapshot multiplexer has %d events, built with %d: %w", n, NumEvents, errs.ErrBadConfig)
	}
	var observed, activeCyc [NumEvents]uint64
	for i := range observed {
		observed[i] = d.U64()
	}
	for i := range activeCyc {
		activeCyc[i] = d.U64()
	}
	totalCyc := d.U64()
	rotations := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if sliceLen != m.sliceLen {
		return fmt.Errorf("pmu: snapshot multiplexer slice length %d, built with %d: %w", sliceLen, m.sliceLen, errs.ErrBadConfig)
	}
	if active >= len(m.groups) || sliceLeft > sliceLen || sliceLeft == 0 {
		return fmt.Errorf("pmu: snapshot multiplexer position out of range: %w", errs.ErrBadConfig)
	}
	m.sync()
	m.active = active
	m.sliceLeft = sliceLeft
	m.observed = observed
	m.activeCyc = activeCyc
	m.totalCyc = totalCyc
	m.rotations = rotations
	return nil
}
