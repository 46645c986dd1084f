package sim

import (
	"fmt"
	"sync"

	"threadcluster/internal/cache"
	"threadcluster/internal/topology"
)

// Engine selects how the machine drives the hardware contexts through a
// round's interleave slices.
//
// Both engines execute the *same* simulation semantics, so they produce
// byte-identical results; the knob only chooses the driver. When a round
// is eligible for deferred coherence (multi-chip directory machine, no
// access observer, no armed PMU overflow handler, every running thread's
// generator confined — see deferredRound), each chip's CPUs run their
// slice against chip-local cache state through a cache.Lane, and
// cross-chip coherence drains at a deterministic slice barrier in
// canonical chip order. EngineParallel runs those chip slices on worker
// goroutines; EngineSeq runs them one chip at a time on the calling
// goroutine. Ineligible rounds fall back to the serial
// immediate-coherence loop under either engine.
type Engine int

const (
	// EngineParallel (the default) runs eligible rounds chip-parallel,
	// one worker goroutine per chip per slice. Results are reproducible
	// byte-for-byte for any GOMAXPROCS and identical to EngineSeq.
	EngineParallel Engine = iota
	// EngineSeq drives every round from the calling goroutine: the
	// reference half of the engine differential tests and of
	// cmd/tcbench's identity check. No front end selects it.
	EngineSeq
)

func (e Engine) String() string {
	switch e {
	case EngineParallel:
		return "parallel"
	case EngineSeq:
		return "seq"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps an engine's name to it. Its one use is vetting the
// legacy engine field of a job spec.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "parallel":
		return EngineParallel, nil
	case "seq":
		return EngineSeq, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want seq or parallel)", s)
}

// ConfinedGenerator marks a Generator whose Next (and NextRun) methods
// touch only state owned by its own thread (its own RNG, immutable shared
// regions). Generators that mutate shared structures at generation time — e.g. the
// SPECjbb/RUBiS workloads, whose transactions insert into a B-tree shared
// by the warehouse's threads — must not be marked: running them from
// concurrent chip workers would race. Rounds with any unconfined running
// generator fall back to the serial immediate-coherence loop, which is
// also what keeps their results identical to previous releases.
type ConfinedGenerator interface {
	Generator
	// Confined is a marker; implementations do nothing.
	Confined()
	// SnapshotState returns the generator's cursor — everything its Next
	// stream depends on beyond construction-time configuration (RNG
	// position, reference counts, phase switches) — as an opaque blob the
	// same implementation's RestoreState accepts. Machine snapshots embed
	// these blobs; a machine with any non-confined generator cannot be
	// snapshotted.
	SnapshotState() []byte
	// RestoreState overwrites the generator's cursor with a state
	// returned by SnapshotState on an identically constructed generator.
	RestoreState(state []byte) error
}

// deferredRound reports whether the upcoming round can run under the
// deferred slice-barrier coherence model. Every input is simulation
// state, so the answer — and therefore the simulated result — never
// depends on the host (GOMAXPROCS, core count, scheduling).
//
//   - Multi-chip directory mode: broadcast coherence must probe other
//     chips' caches synchronously and cannot defer; a single chip has no
//     cross-chip traffic worth deferring.
//   - No access observer: observers are arbitrary user callbacks invoked
//     per reference and may touch shared state.
//   - No armed PMU overflow handler on a dispatched CPU: handlers can
//     reprogram counters and inspect machine state mid-slice, which
//     requires the serial immediate view. (Parked handlers with a zero
//     threshold cannot fire and don't disqualify.)
//   - Every running thread's generator is a ConfinedGenerator.
func (m *Machine) deferredRound() bool {
	if m.topo.Chips <= 1 || m.observer != nil || m.hier.Coherence() != cache.CoherenceDirectory {
		return false
	}
	for c, id := range m.running {
		if id < 0 {
			continue
		}
		if !m.byID[id].confined || m.pmus[c].HasArmedHandler() {
			return false
		}
	}
	return true
}

// runSlices drives one round of the deferred model: every slice runs
// each chip's CPUs through the chip's lane, then drains the coherence
// mailboxes. With spawn false (EngineSeq) the chips run in canonical
// order on the calling goroutine; with spawn true (EngineParallel) they
// run concurrently, one goroutine per chip, and the barrier is applied
// serially once they all finish. A chip's worker touches only chip-local
// state (its cores' threads, generators and PMUs, plus the chip's
// cache.Lane), so workers never contend; determinism follows from the
// lanes' frozen-snapshot reads plus the canonical barrier order (see
// DESIGN.md §7). Goroutines are spawned per slice rather than kept in a
// pool: Close only recycles cache slabs and callers may skip it, so a
// parked pool would leak with every machine dropped unclosed, while a
// goroutine spawn is trivial next to a slice's work.
func (m *Machine) runSlices(sliceBudget uint64, spawn bool) {
	var wg *sync.WaitGroup // nil unless spawning: the sequential driver allocates nothing
	if spawn {
		m.parallelRounds++
		wg = new(sync.WaitGroup)
	}
	for s := 0; s < m.cfg.InterleaveSlices; s++ {
		if spawn {
			wg.Add(m.topo.Chips)
			for chip := 0; chip < m.topo.Chips; chip++ {
				go m.runChipSliceWG(wg, chip, sliceBudget)
			}
			wg.Wait()
		} else {
			for chip := 0; chip < m.topo.Chips; chip++ {
				m.runChipSlice(chip, sliceBudget)
			}
		}
		m.hier.SliceBarrier()
	}
}

// runChipSliceWG adapts runChipSlice for the worker pool without
// allocating a closure per spawn.
func (m *Machine) runChipSliceWG(wg *sync.WaitGroup, chip int, sliceBudget uint64) {
	defer wg.Done()
	m.runChipSlice(chip, sliceBudget)
}

// runChipSlice runs one slice for every dispatched CPU of one chip, in
// CPU-id order, through the chip's lane. CPU ids are chip-major, so this
// is exactly the serial loop's visit order restricted to the chip.
func (m *Machine) runChipSlice(chip int, sliceBudget uint64) {
	lane := m.hier.Lane(chip)
	perChip := m.topo.CoresPerChip * m.topo.ContextsPerCore
	for c := chip * perChip; c < (chip+1)*perChip; c++ {
		if m.running[c] < 0 {
			continue
		}
		cpu := topology.CPUID(c)
		m.runSlice(cpu, m.byID[m.running[c]], sliceBudget, m.smtBusy(cpu), lane)
	}
}
