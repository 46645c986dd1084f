package pmu

import (
	"fmt"
	"math/rand"
	"testing"

	"threadcluster/internal/cache"
	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
)

// scanPMU is the reference the PMU is checked against: the PMU as it was
// before the per-event index and the deferred path existed, observing
// every event at once and scanning every counter slot for it. Handlers
// are kept by id so both implementations can run the same one.
type scanPMU struct {
	counts          [NumEvents]uint64
	slots           [NumPhysicalCounters]scanSlot
	sdar            SampledAddr
	mux             *Multiplexer
	interruptCycles uint64
	fire            func(r *scanPMU, handler int) uint64
}

type scanSlot struct {
	event      Event
	value      uint64
	overflowAt uint64
	handler    int // index into diffHandlers, -1 for none
	programmed bool
}

func (r *scanPMU) program(slot int, ev Event, overflowAt uint64, handler int) bool {
	if slot < 0 || slot >= NumPhysicalCounters || ev < 0 || int(ev) >= NumEvents {
		return false
	}
	r.slots[slot] = scanSlot{event: ev, overflowAt: overflowAt, handler: handler, programmed: true}
	return true
}

func (r *scanPMU) unprogram(slot int) {
	if slot >= 0 && slot < NumPhysicalCounters {
		r.slots[slot] = scanSlot{}
	}
}

func (r *scanPMU) setOverflowThreshold(slot int, overflowAt uint64) bool {
	if slot < 0 || slot >= NumPhysicalCounters || !r.slots[slot].programmed {
		return false
	}
	r.slots[slot].overflowAt = overflowAt
	return true
}

func (r *scanPMU) observe(ev Event, n uint64) {
	if n == 0 {
		return
	}
	r.counts[ev] += n
	if r.mux != nil {
		r.mux.observe(ev, n)
	}
	for i := range r.slots {
		s := &r.slots[i]
		if !s.programmed || s.event != ev {
			continue
		}
		s.value += n
		if s.overflowAt != 0 && s.value >= s.overflowAt {
			s.value -= s.overflowAt
			if s.value >= s.overflowAt {
				s.value %= s.overflowAt
			}
			if s.handler >= 0 {
				r.interruptCycles += r.fire(r, s.handler)
			}
		}
	}
}

func (r *scanPMU) observeBatch(b *Batch) {
	for ev := range b {
		if b[ev] != 0 {
			r.observe(Event(ev), b[ev])
			b[ev] = 0
		}
	}
}

func (r *scanPMU) recordMiss(line memory.Addr, src cache.Source) {
	r.sdar = SampledAddr{Line: line, Valid: true, source: src}
	r.observe(EvL1DMiss, 1)
	if ev, ok := MissEvent(src); ok {
		r.observe(ev, 1)
	}
	if src.Remote() {
		r.observe(EvRemoteAccess, 1)
	}
}

func (r *scanPMU) reset() {
	r.counts = [NumEvents]uint64{}
	for i := range r.slots {
		r.slots[i].value = 0
	}
	r.sdar = SampledAddr{}
	r.interruptCycles = 0
}

func (r *scanPMU) hasArmedHandler() bool {
	for _, s := range r.slots {
		if s.programmed && s.handler >= 0 && s.overflowAt != 0 {
			return true
		}
	}
	return false
}

// diffHandler is an overflow handler both PMUs can run: it costs cycles
// and, like the clustering engine's handlers, may reprogram the PMU that
// fired it — including the slot being scanned.
type diffHandler struct {
	cycles uint64
	act    func(program func(slot int, ev Event, at uint64, handler int), unprogram func(slot int), retune func(slot int, at uint64))
}

var diffHandlers = []diffHandler{
	{cycles: 7, act: nil},
	{cycles: 310, act: func(program func(int, Event, uint64, int), _ func(int), _ func(int, uint64)) {
		program(2, EvRemoteAccess, 3, 0) // arm another slot from interrupt context
	}},
	{cycles: 45, act: func(_ func(int, Event, uint64, int), unprogram func(int), _ func(int, uint64)) {
		unprogram(4) // may be the slot that fired, or a later one in the scan
	}},
	{cycles: 90, act: func(_ func(int, Event, uint64, int), _ func(int), retune func(int, uint64)) {
		retune(1, 11)
	}},
	{cycles: 1200, act: func(program func(int, Event, uint64, int), _ func(int), _ func(int, uint64)) {
		program(5, EvL1DMiss, 2, 3) // a handler-armed slot for the event RecordMiss counts first
	}},
	{cycles: 3, act: func(program func(int, Event, uint64, int), _ func(int), _ func(int, uint64)) {
		program(3, EvCycles, 5, -1) // a handler-less wrapping slot for an event that is usually pending
	}},
	{cycles: 11, act: func(_ func(int, Event, uint64, int), _ func(int), retune func(int, uint64)) {
		retune(0, 4) // re-threshold whatever slot 0 counts, pending or armed
	}},
}

// diffPair drives a PMU and the slot-scan reference through the same
// operations and compares them after every one.
type diffPair struct {
	t       *testing.T
	real    *PMU
	ref     *scanPMU
	realMux *Multiplexer
	refMux  *Multiplexer
	groups  [][]Event

	realFired, refFired []int
}

func (d *diffPair) realHandler(id int) OverflowHandler {
	if id < 0 {
		return nil
	}
	h := diffHandlers[id]
	return func(p *PMU) uint64 {
		d.realFired = append(d.realFired, id)
		if h.act != nil {
			h.act(
				func(slot int, ev Event, at uint64, handler int) { _ = p.Program(slot, ev, at, d.realHandler(handler)) },
				p.Unprogram,
				func(slot int, at uint64) { _ = p.SetOverflowThreshold(slot, at) },
			)
		}
		return h.cycles
	}
}

func (d *diffPair) fireRef(r *scanPMU, id int) uint64 {
	d.refFired = append(d.refFired, id)
	h := diffHandlers[id]
	if h.act != nil {
		h.act(
			func(slot int, ev Event, at uint64, handler int) { r.program(slot, ev, at, handler) },
			r.unprogram,
			func(slot int, at uint64) { r.setOverflowThreshold(slot, at) },
		)
	}
	return h.cycles
}

// saveRestore moves the real PMU's state into a freshly built one the way
// a machine restore does: re-install the programming (which rebuilds the
// derived index), then RestoreState. The reference just carries on.
func (d *diffPair) saveRestore() {
	d.t.Helper()
	var e snapbin.Enc
	d.real.SaveState(&e)
	fresh := New()
	for i, s := range d.ref.slots {
		if s.programmed {
			if err := fresh.Program(i, s.event, 0, d.realHandler(s.handler)); err != nil {
				d.t.Fatal(err)
			}
		}
	}
	if d.realMux != nil {
		var me snapbin.Enc
		d.realMux.SaveState(&me)
		mux, err := NewMultiplexer(d.groups, d.realMux.sliceLen)
		if err != nil {
			d.t.Fatal(err)
		}
		if err := mux.RestoreState(snapbin.NewDec(me.Bytes())); err != nil {
			d.t.Fatalf("multiplexer restore: %v", err)
		}
		d.realMux = mux
		fresh.AttachMultiplexer(mux)
	}
	if err := fresh.RestoreState(snapbin.NewDec(e.Bytes())); err != nil {
		d.t.Fatalf("restore into a PMU with the same programming: %v", err)
	}
	d.real = fresh
}

func (d *diffPair) fail(step int, op, format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d (%s): %s", step, op, fmt.Sprintf(format, args...))
}

// compareReads compares everything the deferred path may hold back:
// counts, counter values and the multiplexer's observations. Each read
// flushes the real PMU's pending deltas first.
func (d *diffPair) compareReads(step int, op string) {
	d.t.Helper()
	for ev := Event(0); int(ev) < NumEvents; ev++ {
		if got, want := d.real.Count(ev), d.ref.counts[ev]; got != want {
			d.fail(step, op, "Count(%v) = %d, slot-scan reference %d", ev, got, want)
		}
		if d.realMux != nil {
			if got, want := d.realMux.Observed(ev), d.refMux.Observed(ev); got != want {
				d.fail(step, op, "multiplexer Observed(%v) = %d, reference %d", ev, got, want)
			}
		}
	}
	for slot := 0; slot < NumPhysicalCounters; slot++ {
		if got, want := d.real.CounterValue(slot), d.ref.slots[slot].value; got != want {
			d.fail(step, op, "CounterValue(%d) = %d, reference %d", slot, got, want)
		}
	}
}

// compare compares the state the deferred path never holds back: the
// sampling register, interrupt cycles, the armed index and the order
// handlers fired in. None of these reads flushes.
func (d *diffPair) compare(step int, op string) {
	d.t.Helper()
	fail := func(format string, args ...any) {
		d.t.Helper()
		d.fail(step, op, format, args...)
	}
	if got, want := d.real.ReadSDAR(), d.ref.sdar; got != want {
		fail("SDAR = %+v, reference %+v", got, want)
	}
	if got, want := d.real.interruptCycles, d.ref.interruptCycles; got != want {
		fail("%d undrained interrupt cycles, reference %d", got, want)
	}
	if got, want := d.real.HasArmedHandler(), d.ref.hasArmedHandler(); got != want {
		fail("HasArmedHandler = %v, reference %v", got, want)
	}
	if len(d.realFired) != len(d.refFired) {
		fail("%d handler firings, reference %d (%v vs %v)", len(d.realFired), len(d.refFired), d.realFired, d.refFired)
	}
	for i := range d.realFired {
		if d.realFired[i] != d.refFired[i] {
			fail("firing %d ran handler %d, reference ran %d", i, d.realFired[i], d.refFired[i])
		}
	}
	// Both logs agree up to here; start the next step's from empty.
	d.realFired, d.refFired = d.realFired[:0], d.refFired[:0]
}

// TestObserveMatchesSlotScanReference replays seeded random operation
// sequences through the PMU and the slot-scan reference, with and without
// a multiplexer. The real PMU records events the way the simulator does,
// through Add and RecordMiss, so unarmed events wait in its pending batch
// while the reference observes every event at once; handlers program,
// unprogram and re-threshold other slots mid-batch, and the state is
// saved and restored between batches. After every operation the sampling
// register, interrupt cycles, armed state and handler firing order must
// match; counts, counter values and multiplexer observations — what the
// deferral holds back — must match at every read, and the reads are
// spread out so pending deltas survive across reprogramming. The watched
// and armed indexes and the pending batch are derived state; this is what
// says they never filter, delay or misplace an event some slot counts.
func TestObserveMatchesSlotScanReference(t *testing.T) {
	thresholds := []uint64{0, 0, 1, 2, 3, 5, 17, 100}
	amounts := []uint64{0, 1, 1, 1, 2, 7, 250}
	groups := [][]Event{
		{EvCycles, EvInstCompleted, EvL1DMiss},
		{EvRemoteAccess, EvMissRemoteL2, EvMissL2},
		{EvMissMemory},
	}
	for _, withMux := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := &diffPair{t: t, real: New(), ref: &scanPMU{}, groups: groups}
			d.ref.fire = d.fireRef
			if withMux {
				var err error
				if d.realMux, err = NewMultiplexer(groups, 64); err != nil {
					t.Fatal(err)
				}
				d.refMux, _ = NewMultiplexer(groups, 64)
				d.real.AttachMultiplexer(d.realMux)
				d.ref.mux = d.refMux
			}
			var drained, refDrained uint64
			var reads, deferredReads int
			for step := 0; step < 4000; step++ {
				var op string
				switch k := rng.Intn(100); {
				case k < 12:
					// Mostly valid, sometimes out of range on either axis.
					slot, ev := rng.Intn(NumPhysicalCounters+2)-1, Event(rng.Intn(NumEvents+1))
					at, h := thresholds[rng.Intn(len(thresholds))], rng.Intn(len(diffHandlers)+2)-2
					if h < -1 {
						h = -1
					}
					op = fmt.Sprintf("Program(%d, %d, %d, handler %d)", slot, int(ev), at, h)
					err := d.real.Program(slot, ev, at, d.realHandler(h))
					if ok := d.ref.program(slot, ev, at, h); ok != (err == nil) {
						t.Fatalf("step %d (%s): err = %v, reference accepted = %v", step, op, err, ok)
					}
				case k < 16:
					slot := rng.Intn(NumPhysicalCounters+2) - 1
					op = fmt.Sprintf("Unprogram(%d)", slot)
					d.real.Unprogram(slot)
					d.ref.unprogram(slot)
				case k < 21:
					slot, at := rng.Intn(NumPhysicalCounters+2)-1, thresholds[rng.Intn(len(thresholds))]
					op = fmt.Sprintf("SetOverflowThreshold(%d, %d)", slot, at)
					err := d.real.SetOverflowThreshold(slot, at)
					if ok := d.ref.setOverflowThreshold(slot, at); ok != (err == nil) {
						t.Fatalf("step %d (%s): err = %v, reference accepted = %v", step, op, err, ok)
					}
				case k < 55:
					// One reference's worth of events, as runSlice records
					// them: several Adds in a row, mostly of unarmed events.
					op = "Add"
					for i := rng.Intn(4); i >= 0; i-- {
						ev, n := Event(rng.Intn(NumEvents)), amounts[rng.Intn(len(amounts))]
						op += fmt.Sprintf(" (%v, %d)", ev, n)
						d.real.Add(ev, n)
						d.ref.observe(ev, n)
					}
				case k < 60:
					ev, n := Event(rng.Intn(NumEvents)), amounts[rng.Intn(len(amounts))]
					op = fmt.Sprintf("Observe(%v, %d)", ev, n)
					d.real.Observe(ev, n)
					d.ref.observe(ev, n)
				case k < 66:
					var b, rb Batch
					for i := rng.Intn(6); i >= 0; i-- {
						b.Add(Event(rng.Intn(NumEvents)), amounts[rng.Intn(len(amounts))])
					}
					rb = b
					op = fmt.Sprintf("ObserveBatch(%v)", b)
					d.real.ObserveBatch(&b)
					d.ref.observeBatch(&rb)
					if b != (Batch{}) {
						t.Fatalf("step %d (%s): batch not zeroed", step, op)
					}
				case k < 84:
					line, src := memory.Addr(rng.Intn(1<<20))*memory.LineSize, cache.Source(rng.Intn(cache.NumSources))
					op = fmt.Sprintf("RecordMiss(%#x, %v)", uint64(line), src)
					d.real.RecordMiss(line, src)
					d.ref.recordMiss(line, src)
				case k < 86:
					op = "Reset"
					d.real.Reset()
					d.ref.reset()
				case k < 90:
					op = "SaveState -> RestoreState"
					d.saveRestore()
				case k < 93:
					op = "DrainInterruptCycles"
					drained += d.real.DrainInterruptCycles()
					refDrained += d.ref.interruptCycles
					d.ref.interruptCycles = 0
				case k < 97:
					// A read: one reader flushes the pending batch on its
					// own and must already agree; then everything is read.
					if d.real.pending != (Batch{}) {
						deferredReads++
					}
					reads++
					ev, slot := Event(rng.Intn(NumEvents)), rng.Intn(NumPhysicalCounters)
					switch r := rng.Intn(3); {
					case r == 0:
						op = fmt.Sprintf("Count(%v)", ev)
						if got, want := d.real.Count(ev), d.ref.counts[ev]; got != want {
							d.fail(step, op, "= %d, reference %d", got, want)
						}
					case r == 1 || !withMux:
						op = fmt.Sprintf("CounterValue(%d)", slot)
						if got, want := d.real.CounterValue(slot), d.ref.slots[slot].value; got != want {
							d.fail(step, op, "= %d, reference %d", got, want)
						}
					default:
						op = fmt.Sprintf("Multiplexer.Estimate(%v)", ev)
						if got, want := d.realMux.Estimate(ev), d.refMux.Estimate(ev); got != want {
							d.fail(step, op, "= %d, reference %d", got, want)
						}
					}
					d.compareReads(step, op)
				default:
					if !withMux {
						continue
					}
					cycles := uint64(rng.Intn(200))
					op = fmt.Sprintf("Multiplexer.Advance(%d)", cycles)
					d.realMux.Advance(cycles)
					d.refMux.Advance(cycles)
				}
				if drained != refDrained {
					t.Fatalf("step %d (%s): drained %d interrupt cycles so far, reference %d", step, op, drained, refDrained)
				}
				d.compare(step, op)
			}
			d.compareReads(4000, "final read")
			if got, want := d.real.DrainInterruptCycles(), d.ref.interruptCycles; got != want {
				t.Fatalf("mux=%v seed %d: %d undrained interrupt cycles at the end, reference %d", withMux, seed, got, want)
			}
			if drained == 0 {
				t.Errorf("mux=%v seed %d: no handler ever fired; the sequence does not exercise overflow", withMux, seed)
			}
			if deferredReads < reads/2 {
				t.Errorf("mux=%v seed %d: only %d of %d reads found deltas pending; the sequence does not exercise deferral",
					withMux, seed, deferredReads, reads)
			}
		}
	}
}
