package workloads

import (
	"fmt"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// SyntheticConfig parameterizes the Section 5.3.1 microbenchmark: "a
// simple multithreaded program in which each worker thread reads and
// modifies a scoreboard. Each scoreboard is shared by several threads, and
// there are several scoreboards. Each thread has a private chunk of data
// to work on which is fairly large so that accessing it often causes data
// cache misses."
type SyntheticConfig struct {
	// Scoreboards is the number of shared scoreboards (= clusters).
	Scoreboards int
	// ThreadsPerBoard is the fixed number of threads sharing each board.
	ThreadsPerBoard int
	// ScoreboardBytes sizes each scoreboard (small and hot).
	ScoreboardBytes uint64
	// PrivateBytes sizes each thread's private chunk (large, so accesses
	// often miss).
	PrivateBytes uint64
	// Align overrides the allocation alignment of scoreboards and private
	// chunks (0 = cache-line aligned). Page-granularity detection studies
	// set it to the page size so regions don't coalesce on pages.
	Align uint64
	// SharedRatio is the fraction of accesses aimed at the scoreboard.
	SharedRatio float64
	// WriteRatio is the fraction of scoreboard accesses that modify it.
	WriteRatio float64
	// Seed drives the generators.
	Seed int64
}

// DefaultSyntheticConfig sizes the microbenchmark for the 8-way machine:
// 4 scoreboards of 4 threads each, as in the Figure 5a plot.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Scoreboards:     4,
		ThreadsPerBoard: 4,
		ScoreboardBytes: 16 * memory.LineSize,
		PrivateBytes:    128 << 10,
		SharedRatio:     0.4,
		WriteRatio:      0.5,
		Seed:            1,
	}
}

type syntheticWorker struct {
	cursor     // step counts the references produced
	private    memory.Region
	scoreboard memory.Region
	cfg        SyntheticConfig

	// Phase-change support (Section 4.1: "application phase changes are
	// automatically accounted for by this iterative process"): after
	// phaseAfterRefs references the worker switches from firstBoard to
	// secondBoard.
	firstBoard     memory.Region
	secondBoard    memory.Region
	phaseAfterRefs uint64

	run [1]sim.MemRef // NextRun's slot
}

// Confined marks the generator parallel-safe: a worker owns its RNG and
// phase state and reads only immutable Region descriptors.
func (w *syntheticWorker) Confined() {}

// SnapshotState returns the worker's cursor (the phase switch is derived
// from its reference count on restore).
func (w *syntheticWorker) SnapshotState() []byte { return w.save() }

// RestoreState overwrites the worker's cursor with a SnapshotState blob
// from an identically constructed worker.
func (w *syntheticWorker) RestoreState(state []byte) error {
	if err := w.restore(state); err != nil {
		return err
	}
	// Next switches boards exactly when step hits phaseAfterRefs; the
	// restored cursor decides which side of the switch the worker is on.
	if w.phaseAfterRefs > 0 && w.step >= w.phaseAfterRefs {
		w.scoreboard = w.secondBoard
	} else {
		w.scoreboard = w.firstBoard
	}
	return nil
}

func (w *syntheticWorker) Next() sim.MemRef { return w.NextRun()[0] }

// NextRun writes one reference into the worker's run slot.
func (w *syntheticWorker) NextRun() []sim.MemRef {
	w.step++
	if w.phaseAfterRefs > 0 && w.step == w.phaseAfterRefs {
		w.scoreboard = w.secondBoard
	}
	r := &w.run[0]
	r.BranchStall, r.OtherStall = stallNoise(&w.rng, 2, 4)
	r.Insts = 10
	if w.rng.Float64() < w.cfg.SharedRatio {
		// Read-modify the scoreboard: one task completed per touch.
		r.Addr = pick(&w.rng, w.scoreboard)
		r.Write = w.rng.Float64() < w.cfg.WriteRatio
		r.Ops = 1
	} else {
		r.Addr = pick(&w.rng, w.private)
		r.Write = w.rng.Intn(4) == 0
		r.Ops = 0
	}
	return w.run[:]
}

// NewSynthetic builds the scoreboard microbenchmark. Threads are numbered
// so that consecutive IDs belong to different scoreboards (i % boards),
// which means naive round-robin placement scatters every sharing group
// across chips — the worst case the paper engineers.
func NewSynthetic(arena *memory.Arena, cfg SyntheticConfig) (*Spec, error) {
	if cfg.Scoreboards <= 0 || cfg.ThreadsPerBoard <= 0 {
		return nil, fmt.Errorf("workloads: synthetic needs positive scoreboards and threads, got %+v: %w", cfg, errs.ErrBadConfig)
	}
	if cfg.ScoreboardBytes < memory.LineSize || cfg.PrivateBytes < memory.LineSize {
		return nil, fmt.Errorf("workloads: synthetic regions must hold at least one line: %w", errs.ErrBadConfig)
	}
	align := cfg.Align
	if align == 0 {
		align = memory.LineSize
	}
	boards := make([]memory.Region, cfg.Scoreboards)
	for i := range boards {
		r, err := arena.Alloc(cfg.ScoreboardBytes, align)
		if err != nil {
			return nil, err
		}
		boards[i] = r
	}
	spec := &Spec{Name: "microbenchmark", NumPartitions: cfg.Scoreboards}
	total := cfg.Scoreboards * cfg.ThreadsPerBoard
	for i := 0; i < total; i++ {
		board := i % cfg.Scoreboards
		private, err := arena.Alloc(cfg.PrivateBytes, align)
		if err != nil {
			return nil, err
		}
		w := &syntheticWorker{
			cursor:     cursor{rng: *rng.New(streamSeed(cfg.Seed, streamSynthetic, i))},
			private:    private,
			scoreboard: boards[board],
			firstBoard: boards[board],
			cfg:        cfg,
		}
		spec.Threads = append(spec.Threads, &sim.Thread{
			ID:        sched.ThreadID(i),
			Gen:       w,
			Partition: board,
		})
	}
	return spec, nil
}

// NewSyntheticWithPhaseChange builds the scoreboard microbenchmark with a
// mid-run sharing phase change: for the first phaseAfterRefs references,
// thread i shares scoreboard i % Scoreboards (the interleaved grouping);
// afterwards it shares scoreboard i / ThreadsPerBoard (a block grouping),
// so every sharing cluster dissolves and reforms with different members.
// The Thread.Partition ground truth describes the FIRST phase.
func NewSyntheticWithPhaseChange(arena *memory.Arena, cfg SyntheticConfig, phaseAfterRefs uint64) (*Spec, error) {
	spec, err := NewSynthetic(arena, cfg)
	if err != nil {
		return nil, err
	}
	if phaseAfterRefs == 0 {
		return nil, fmt.Errorf("workloads: phase change needs a positive reference count: %w", errs.ErrBadConfig)
	}
	// Second-phase scoreboards: a disjoint set of boards so the engine
	// cannot coast on stale placement.
	boards := make([]memory.Region, cfg.Scoreboards)
	for i := range boards {
		r, err := arena.Alloc(cfg.ScoreboardBytes, memory.LineSize)
		if err != nil {
			return nil, err
		}
		boards[i] = r
	}
	for i, th := range spec.Threads {
		w := th.Gen.(*syntheticWorker)
		w.secondBoard = boards[(i/cfg.ThreadsPerBoard)%cfg.Scoreboards]
		w.phaseAfterRefs = phaseAfterRefs
	}
	return spec, nil
}

// SecondPhaseTruth returns the ground-truth partition of the second phase
// of a NewSyntheticWithPhaseChange workload.
func SecondPhaseTruth(cfg SyntheticConfig) map[int]int {
	truth := make(map[int]int)
	total := cfg.Scoreboards * cfg.ThreadsPerBoard
	for i := 0; i < total; i++ {
		truth[i] = (i / cfg.ThreadsPerBoard) % cfg.Scoreboards
	}
	return truth
}
