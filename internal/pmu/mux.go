package pmu

import "fmt"

// Multiplexer implements fine-grained HPC multiplexing in the style of
// Azimi, Stumm and Wisniewski [2]: more logical events than physical
// counters are monitored by rotating groups of events through the physical
// counters on a fine time slice, and the full-run value of each event is
// estimated by scaling the observed count by the fraction of time its
// group was scheduled.
//
// The stall-breakdown monitor needs seven stall categories plus cycles and
// completion information — more than the six physical counters — so it is
// the natural client.
type Multiplexer struct {
	groups    [][]Event
	active    int
	sliceLen  uint64 // cycles per scheduling slice
	sliceLeft uint64

	observed  [NumEvents]uint64 // counts while the owning group was active
	activeCyc [NumEvents]uint64 // cycles during which the event was active
	totalCyc  uint64
	groupOf   [NumEvents]int // derived from groups at construction, never mutated
	rotations uint64         // completed group switches

	// owner is the PMU the multiplexer is attached to; its pending deltas
	// belong in observed before anything reads observed or rotates the
	// active group.
	owner *PMU // attachment wiring set by PMU.AttachMultiplexer
}

// sync delivers the owning PMU's pending deltas.
func (m *Multiplexer) sync() {
	if m.owner != nil {
		m.owner.flush()
	}
}

// NewMultiplexer builds a multiplexer over the given event groups. Each
// group must fit in the physical counters; groups are rotated round-robin
// every sliceLen cycles.
func NewMultiplexer(groups [][]Event, sliceLen uint64) (*Multiplexer, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("pmu: multiplexer needs at least one group")
	}
	if sliceLen == 0 {
		return nil, fmt.Errorf("pmu: multiplexer slice length must be positive")
	}
	m := &Multiplexer{groups: groups, sliceLen: sliceLen, sliceLeft: sliceLen}
	for gi, g := range groups {
		if len(g) > NumPhysicalCounters {
			return nil, fmt.Errorf("pmu: group %d has %d events, only %d counters", gi, len(g), NumPhysicalCounters)
		}
		for _, ev := range g {
			if ev < 0 || int(ev) >= NumEvents {
				return nil, fmt.Errorf("pmu: group %d contains unknown event %d", gi, int(ev))
			}
			if m.groupOf[ev] != 0 {
				return nil, fmt.Errorf("pmu: event %v appears in two groups", ev)
			}
			m.groupOf[ev] = gi + 1
		}
	}
	return m, nil
}

// observe is called by the owning PMU for every event occurrence; only
// events in the currently scheduled group are recorded.
func (m *Multiplexer) observe(ev Event, n uint64) {
	if g := m.groupOf[ev]; g != 0 && g-1 == m.active {
		m.observed[ev] += n
	}
}

// Advance accounts for the passage of cycles and rotates groups at slice
// boundaries. The owning simulator calls it as simulated time advances.
func (m *Multiplexer) Advance(cycles uint64) {
	m.sync()
	m.totalCyc += cycles
	for cycles > 0 {
		step := cycles
		if step > m.sliceLeft {
			step = m.sliceLeft
		}
		for _, ev := range m.groups[m.active] {
			m.activeCyc[ev] += step
		}
		m.sliceLeft -= step
		cycles -= step
		if m.sliceLeft == 0 {
			m.active = (m.active + 1) % len(m.groups)
			m.sliceLeft = m.sliceLen
			m.rotations++
		}
	}
}

// Rotations returns how many group switches (multiplexing rounds) have
// completed — the denominator of multiplexing-coverage metrics.
func (m *Multiplexer) Rotations() uint64 { return m.rotations }

// Estimate returns the scaled full-run estimate for an event: the observed
// count divided by the fraction of cycles the event's group was scheduled.
// Events never scheduled (or not monitored) estimate to zero.
func (m *Multiplexer) Estimate(ev Event) uint64 {
	m.sync()
	if m.groupOf[ev] == 0 || m.activeCyc[ev] == 0 {
		return 0
	}
	// observed * total/active, ordered to avoid overflow for typical runs.
	return uint64(float64(m.observed[ev]) * float64(m.totalCyc) / float64(m.activeCyc[ev]))
}

// Observed returns the raw (unscaled) count for an event.
func (m *Multiplexer) Observed(ev Event) uint64 {
	m.sync()
	return m.observed[ev]
}

// ActiveFraction returns the fraction of cycles the event's group has been
// scheduled so far (0 when never scheduled).
func (m *Multiplexer) ActiveFraction(ev Event) float64 {
	if m.totalCyc == 0 {
		return 0
	}
	return float64(m.activeCyc[ev]) / float64(m.totalCyc)
}

// Reset clears all accumulated observations but keeps the group schedule.
func (m *Multiplexer) Reset() {
	m.sync()
	m.observed = [NumEvents]uint64{}
	m.activeCyc = [NumEvents]uint64{}
	m.totalCyc = 0
	m.active = 0
	m.sliceLeft = m.sliceLen
	m.rotations = 0
}
