package sched

import (
	"fmt"
	"sort"

	"threadcluster/internal/errs"
	"threadcluster/internal/rng"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/topology"
)

// SaveState appends the scheduler's complete mutable state — run queues,
// thread-to-CPU map, round-robin cursor, RNG position, migration/steal
// counters and pin set — to the encoder in canonical order. The
// scheduler must be quiesced: every thread requeued (between rounds).
// The partition-hint function is deliberately absent; it is workload
// configuration the restoring caller reinstalls.
func (s *Scheduler) SaveState(e *snapbin.Enc) error {
	if len(s.running) != 0 {
		return fmt.Errorf("sched: %d threads still dispatched mid-quantum: %w", len(s.running), errs.ErrThreadRunning)
	}
	e.U32(uint32(len(s.queues)))
	for _, q := range s.queues {
		e.U32(uint32(len(q)))
		for _, id := range q {
			e.I64(int64(id))
		}
	}
	ids := s.Threads() // ascending
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.I64(int64(id))
		e.U32(uint32(s.cpuOf[id]))
	}
	e.I64(int64(s.rrNext))
	st := s.rng.State()
	e.I64(st.Seed)
	e.U64(st.Draws)
	e.U64(s.migrations)
	e.U64(s.steals)
	pinned := make([]ThreadID, 0, len(s.pinned))
	for id := range s.pinned {
		pinned = append(pinned, id)
	}
	sort.Slice(pinned, func(i, j int) bool { return pinned[i] < pinned[j] })
	e.U32(uint32(len(pinned)))
	for _, id := range pinned {
		e.I64(int64(id))
	}
	return nil
}

// RestoreState overwrites the scheduler's mutable state with a state
// saved by SaveState. The scheduler must already manage exactly the
// threads present in the saved state (the caller re-adds the workload
// before restoring); placement is then overwritten wholesale and the
// result is checked against the scheduler invariants.
func (s *Scheduler) RestoreState(d *snapbin.Dec) error {
	ncpu := int(d.U32())
	if d.Err() == nil && ncpu != len(s.queues) {
		return fmt.Errorf("sched: restoring state for %d CPUs onto %d: %w", ncpu, len(s.queues), errs.ErrBadConfig)
	}
	queues := make([][]ThreadID, 0, len(s.queues))
	for c := 0; c < ncpu && d.Err() == nil; c++ {
		n := d.Count(8)
		q := make([]ThreadID, 0, n)
		for i := 0; i < n; i++ {
			q = append(q, ThreadID(d.I64()))
		}
		queues = append(queues, q)
	}
	nthreads := d.Count(12)
	cpuOf := make(map[ThreadID]topology.CPUID, nthreads)
	for i := 0; i < nthreads && d.Err() == nil; i++ {
		id := ThreadID(d.I64())
		cpu := topology.CPUID(d.U32())
		if int(cpu) >= len(s.queues) {
			return fmt.Errorf("sched: restored thread %d on CPU %d out of range: %w", id, int(cpu), errs.ErrBadConfig)
		}
		cpuOf[id] = cpu
	}
	rrNext := int(d.I64())
	rngSeed := d.I64()
	rngDraws := d.U64()
	migrations := d.U64()
	steals := d.U64()
	npinned := d.Count(8)
	pinned := make(map[ThreadID]bool, npinned)
	for i := 0; i < npinned && d.Err() == nil; i++ {
		pinned[ThreadID(d.I64())] = true
	}
	if err := d.Err(); err != nil {
		return err
	}

	if len(cpuOf) != len(s.cpuOf) {
		return fmt.Errorf("sched: restoring %d threads onto a scheduler managing %d: %w", len(cpuOf), len(s.cpuOf), errs.ErrBadConfig)
	}
	for id := range cpuOf {
		if _, ok := s.cpuOf[id]; !ok {
			return fmt.Errorf("sched: restored thread %d: %w", id, errs.ErrUnknownThread)
		}
	}
	for id := range pinned {
		if _, ok := cpuOf[id]; !ok {
			return fmt.Errorf("sched: pinned thread %d: %w", id, errs.ErrUnknownThread)
		}
	}
	if err := s.rng.Restore(rng.State{Seed: rngSeed, Draws: rngDraws}); err != nil {
		return fmt.Errorf("sched: %w", err)
	}

	s.queues = queues
	s.cpuOf = cpuOf
	s.running = make(map[ThreadID]bool)
	s.rrNext = rrNext
	s.migrations = migrations
	s.steals = steals
	s.pinned = pinned
	return s.CheckInvariants()
}
