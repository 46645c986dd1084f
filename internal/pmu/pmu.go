package pmu

import (
	"fmt"

	"threadcluster/internal/cache"
	"threadcluster/internal/memory"
)

// NumPhysicalCounters is how many programmable HPCs one PMU exposes. The
// Power5 has six programmable counters (plus two fixed ones); monitoring
// more logical events than this requires multiplexing.
const NumPhysicalCounters = 6

// OverflowHandler is invoked synchronously when a programmed counter
// reaches its overflow threshold — the simulated equivalent of a PMU
// overflow exception. The handler runs in "interrupt context": it may read
// the sampling register and reprogram counters, and it returns the number
// of cycles the interrupt + handling cost, which the simulator charges to
// the CPU that fired it (this is what makes the Figure 8 overhead curve
// emerge from the model rather than being asserted).
type OverflowHandler func(p *PMU) (handlerCycles uint64)

// counterSlot is one physical HPC.
type counterSlot struct {
	event      Event
	value      uint64
	overflowAt uint64 // 0 = never overflow
	handler    OverflowHandler
	programmed bool
}

// SampledAddr is the content of the continuous-sampling data-address
// register together with (simulator-internal) provenance used only to
// evaluate the technique's purity, never by the engine itself.
type SampledAddr struct {
	Line  memory.Addr
	Valid bool
	// source is ground truth about the miss that last updated the
	// register. The engine must not look at it; the SDAR purity experiment
	// (Section 5.2.1 validation) does.
	source cache.Source
}

// PMU is the performance monitoring unit of one hardware context.
//
// It keeps two views of events:
//
//   - exact aggregate counts for every event (the measurement harness —
//     what the paper's authors read out after a run);
//   - the constrained programmable-counter interface with overflow
//     exceptions and a last-L1D-miss sampling register (what the online
//     engine uses).
//
// Events recorded with Add (and RecordMiss) take one of two paths. An
// occurrence of an event that an armed slot counts — one with a handler
// and a nonzero threshold — is observed at once, so its handler fires at
// the exact occurrence. Every other event only sums: aggregate counts,
// multiplexer observations and handler-less counter values are additive,
// and a handler-less wrap is a residue modulo the threshold. Those deltas
// wait in a pending batch that is flushed before anything reads or
// reprograms the PMU (Count, CounterValue, Program, Unprogram,
// SetOverflowThreshold, Reset, the state codec, AttachMultiplexer and
// the attached multiplexer's own reads and rotations). Pending events are
// never armed, so a flush fires no handler, and every reader sees exactly
// what observing each event at once would have produced.
type PMU struct {
	counts [NumEvents]uint64
	slots  [NumPhysicalCounters]counterSlot
	sdar   SampledAddr
	mux    *Multiplexer //tclint:allow snapfields -- optional attachment wiring; the multiplexer snapshots as its own subsection beside the PMU

	// watched[ev] reports whether any programmed slot counts ev, so
	// Observe can skip the slot scan for the (many) events nothing counts.
	watched [NumEvents]bool //tclint:allow snapfields -- derived from slots by reindex; RestoreState requires matching programming and reindexes
	// armed[ev] reports whether a slot that counts ev can fire its handler
	// (it has one and a nonzero threshold). Add observes those events at
	// once and leaves every other event's deltas in pending.
	armed   [NumEvents]bool //tclint:allow snapfields -- derived from slots by reindex, like watched
	pending Batch           //tclint:allow snapfields -- always empty when saved or restored: both flush first

	// interruptCycles accumulates cycles spent in overflow handlers; the
	// simulator drains it into the running thread's cost.
	interruptCycles uint64
}

// New returns a fresh PMU with no counters programmed.
func New() *PMU { return &PMU{} }

// Program installs an event on a physical counter slot. overflowAt of zero
// counts without interrupting. Programming a slot resets its value.
func (p *PMU) Program(slot int, ev Event, overflowAt uint64, h OverflowHandler) error {
	if slot < 0 || slot >= NumPhysicalCounters {
		return fmt.Errorf("pmu: slot %d out of range [0,%d)", slot, NumPhysicalCounters)
	}
	if ev < 0 || int(ev) >= NumEvents {
		return fmt.Errorf("pmu: unknown event %d", int(ev))
	}
	p.flush()
	p.slots[slot] = counterSlot{event: ev, overflowAt: overflowAt, handler: h, programmed: true}
	p.reindex()
	return nil
}

// Unprogram frees a counter slot.
func (p *PMU) Unprogram(slot int) {
	if slot >= 0 && slot < NumPhysicalCounters {
		p.flush()
		p.slots[slot] = counterSlot{}
		p.reindex()
	}
}

// reindex rebuilds watched and armed from the slots' programming.
func (p *PMU) reindex() {
	p.watched = [NumEvents]bool{}
	p.armed = [NumEvents]bool{}
	for i := range p.slots {
		if s := &p.slots[i]; s.programmed {
			p.watched[s.event] = true
			if s.handler != nil && s.overflowAt != 0 {
				p.armed[s.event] = true
			}
		}
	}
}

// SetOverflowThreshold retunes the overflow period of a programmed slot
// without resetting its accumulated value. The sharing-detection phase uses
// this to adapt the temporal sampling rate online (Section 4.3.1).
func (p *PMU) SetOverflowThreshold(slot int, overflowAt uint64) error {
	if slot < 0 || slot >= NumPhysicalCounters || !p.slots[slot].programmed {
		return fmt.Errorf("pmu: slot %d not programmed", slot)
	}
	p.flush()
	p.slots[slot].overflowAt = overflowAt
	p.reindex()
	return nil
}

// CounterValue reads the current value of a physical counter slot.
func (p *PMU) CounterValue(slot int) uint64 {
	if slot < 0 || slot >= NumPhysicalCounters {
		return 0
	}
	p.flush()
	return p.slots[slot].value
}

// Observe records n occurrences of an event. Exact aggregate counts are
// always maintained; programmed counters and the multiplexer see the event
// too, and counter overflow fires handlers synchronously.
func (p *PMU) Observe(ev Event, n uint64) {
	if n == 0 {
		return
	}
	p.counts[ev] += n
	if p.mux != nil {
		p.mux.observe(ev, n)
	}
	if !p.watched[ev] {
		return
	}
	// A handler may reprogram slots mid-scan; the scan reads them live.
	for i := range p.slots {
		s := &p.slots[i]
		if !s.programmed || s.event != ev {
			continue
		}
		s.value += n
		if s.overflowAt != 0 && s.value >= s.overflowAt {
			// Wrap, preserving the residue, like a hardware counter
			// reloaded past its overflow point. A single Observe can
			// cover at most one overflow (events arrive one retirement
			// at a time in the simulator's hot path).
			s.value -= s.overflowAt
			if s.value >= s.overflowAt {
				s.value %= s.overflowAt
			}
			if s.handler != nil {
				p.interruptCycles += s.handler(p)
			}
		}
	}
}

// Batch accumulates per-event deltas for one ObserveBatch call. Index by
// Event. The PMU keeps one as its pending batch.
type Batch [NumEvents]uint64

// Add records n occurrences of an event into the batch.
func (b *Batch) Add(ev Event, n uint64) { b[ev] += n }

// ObserveBatch feeds every nonzero event of the batch through Observe, in
// event order, and zeroes the batch. An armed event in the batch fires its
// handler at most once for the whole delta, so a caller that needs exact
// firing points uses Add instead.
func (p *PMU) ObserveBatch(b *Batch) {
	for ev := range b {
		if b[ev] != 0 {
			p.Observe(Event(ev), b[ev])
			b[ev] = 0
		}
	}
}

// Add records n occurrences of an event: at once when an armed slot
// counts it, so the handler fires at this very occurrence, and into the
// pending batch otherwise. It is the simulator's per-reference path.
func (p *PMU) Add(ev Event, n uint64) {
	if p.armed[ev] {
		p.Observe(ev, n)
		return
	}
	p.pending[ev] += n
}

// flush observes the pending deltas. None of their events is armed, so no
// handler fires; every reader and reprogrammer of the PMU calls it first.
func (p *PMU) flush() { p.ObserveBatch(&p.pending) }

// HasArmedHandler reports whether any programmed counter can currently
// fire an overflow handler (a handler installed with a nonzero overflow
// threshold). Armed-but-silent programming (handler with overflowAt 0,
// how the clustering engine parks its detection hooks between phases)
// does not count: it cannot fire.
func (p *PMU) HasArmedHandler() bool {
	for _, a := range p.armed {
		if a {
			return true
		}
	}
	return false
}

// RecordMiss feeds one completed L1D miss into the PMU: it updates the
// continuous-sampling register with the miss's line address (regardless of
// source — that is the Power5 limitation the paper works around), then
// counts the per-source events through Add. Remote sources additionally
// count EvRemoteAccess, which is the overflow trigger of the Section 5.2.1
// composition: because the counting happens *after* the register update,
// an overflow handler that reads the register immediately will almost
// always observe the remote access that caused the overflow.
func (p *PMU) RecordMiss(line memory.Addr, src cache.Source) {
	p.sdar = SampledAddr{Line: line, Valid: true, source: src}
	p.Add(EvL1DMiss, 1)
	if ev, ok := MissEvent(src); ok {
		p.Add(ev, 1)
	}
	if src.Remote() {
		p.Add(EvRemoteAccess, 1)
	}
}

// ReadSDAR returns the continuous-sampling data-address register. The
// register is not consumed by reading; it keeps its value until the next
// L1D miss overwrites it.
func (p *PMU) ReadSDAR() SampledAddr { return p.sdar }

// SDARSourceForValidation exposes the ground-truth source of the sampled
// miss. It exists only for the sample-purity experiment; the clustering
// engine never calls it.
func (s SampledAddr) SDARSourceForValidation() cache.Source { return s.source }

// Count returns the exact aggregate count of an event.
func (p *PMU) Count(ev Event) uint64 {
	p.flush()
	return p.counts[ev]
}

// DrainInterruptCycles returns and clears the cycles spent in overflow
// handlers since the last drain.
func (p *PMU) DrainInterruptCycles() uint64 {
	c := p.interruptCycles
	p.interruptCycles = 0
	return c
}

// AttachMultiplexer routes subsequent events into a multiplexer as well
// (nil detaches). A multiplexer serves one PMU: it flushes that PMU's
// pending deltas before it reads or rotates.
func (p *PMU) AttachMultiplexer(m *Multiplexer) {
	p.flush()
	if p.mux != nil {
		p.mux.owner = nil
	}
	if m != nil {
		m.owner = p
	}
	p.mux = m
}

// Reset clears aggregate counts and counter values but keeps programming.
func (p *PMU) Reset() {
	p.flush()
	p.counts = [NumEvents]uint64{}
	for i := range p.slots {
		p.slots[i].value = 0
	}
	p.sdar = SampledAddr{}
	p.interruptCycles = 0
}
