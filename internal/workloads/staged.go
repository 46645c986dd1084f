package workloads

import (
	"fmt"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// StagedConfig parameterizes a SEDA-style staged server (Welsh et al.,
// cited in the paper's related work): requests flow through a pipeline of
// stages, each stage served by its own thread pool, with shared queues
// between adjacent stages.
//
// The sharing topology is a *chain* rather than the disjoint partitions
// of the other workloads: stage i's threads share queue i with stage i-1
// and queue i+1 with stage i+1. On a multi-chip machine the best
// placement is a minimum cut of the chain — contiguous stage groups per
// chip — which makes this the interesting adversarial input for a
// clustering heuristic built around disjoint sharing groups.
type StagedConfig struct {
	// Stages is the pipeline depth (e.g. parse -> lookup -> execute ->
	// respond).
	Stages int
	// ThreadsPerStage is each stage's thread pool size.
	ThreadsPerStage int
	// QueueBytes sizes each inter-stage queue (small and write-hot).
	QueueBytes uint64
	// StageStateBytes sizes each stage's internal shared state (routing
	// tables, caches), shared only within the stage.
	StageStateBytes uint64
	// ScratchBytes is each thread's private working memory.
	ScratchBytes uint64
	// Seed drives the generators.
	Seed int64
}

// DefaultStagedConfig is a 4-stage pipeline with 4 threads per stage.
func DefaultStagedConfig() StagedConfig {
	return StagedConfig{
		Stages:          4,
		ThreadsPerStage: 4,
		QueueBytes:      16 * memory.LineSize,
		StageStateBytes: 16 * memory.LineSize,
		ScratchBytes:    64 << 10,
		Seed:            1,
	}
}

// stagedHotQueueLines is how many leading lines of an inter-stage queue
// (its head and tail indices) take most of its traffic.
const stagedHotQueueLines = 2

// stagedWorker processes events: dequeue from the inbound queue, consult
// stage state, work on private scratch, enqueue to the outbound queue.
type stagedWorker struct {
	cursor
	inbound  memory.Region
	outbound memory.Region
	state    memory.Region
	scratch  memory.Region

	run [1]sim.MemRef // NextRun's slot
}

// Confined marks the generator parallel-safe: a stage worker owns its
// RNG and step counter and reads only immutable Region descriptors.
func (w *stagedWorker) Confined() {}

// SnapshotState returns the worker's cursor: RNG position and step.
func (w *stagedWorker) SnapshotState() []byte { return w.save() }

// RestoreState overwrites the worker's cursor with a SnapshotState blob
// from an identically constructed worker.
func (w *stagedWorker) RestoreState(state []byte) error { return w.restore(state) }

func (w *stagedWorker) Next() sim.MemRef { return w.NextRun()[0] }

// NextRun writes one reference into the worker's run slot.
func (w *stagedWorker) NextRun() []sim.MemRef {
	w.step++
	r := &w.run[0]
	r.BranchStall, r.OtherStall = stallNoise(&w.rng, 2, 4)
	r.Insts = 10
	r.Ops = 0
	switch w.step % 6 {
	case 0: // dequeue: read + head-pointer update on the inbound queue
		r.Addr = pickHot(&w.rng, w.inbound, stagedHotQueueLines, 0.6)
		r.Write = w.rng.Intn(2) == 0
	case 1: // enqueue: write into the outbound queue
		r.Addr = pickHot(&w.rng, w.outbound, stagedHotQueueLines, 0.6)
		r.Write = true
		r.Ops = 1 // one event processed
	case 2: // stage-internal shared state, read-mostly
		r.Addr = pick(&w.rng, w.state)
		r.Write = w.rng.Intn(8) == 0
	default: // private scratch work
		r.Addr = pick(&w.rng, w.scratch)
		r.Write = w.rng.Intn(3) == 0
	}
	return w.run[:]
}

// NewStaged builds the staged-server workload. Thread IDs interleave
// stages (thread i works stage i % Stages) so naive placement scatters
// every stage; the ground-truth partition is the stage.
func NewStaged(arena *memory.Arena, cfg StagedConfig) (*Spec, error) {
	if cfg.Stages <= 0 || cfg.ThreadsPerStage <= 0 {
		return nil, fmt.Errorf("workloads: staged needs positive stages and threads, got %+v: %w", cfg, errs.ErrBadConfig)
	}
	if err := checkRegions("staged",
		regionSize{"QueueBytes", cfg.QueueBytes, stagedHotQueueLines},
		regionSize{"StageStateBytes", cfg.StageStateBytes, 1},
		regionSize{"ScratchBytes", cfg.ScratchBytes, 1},
	); err != nil {
		return nil, err
	}
	// Queues 0..Stages: queue[i] feeds stage i; queue[Stages] is the
	// output sink.
	queues := make([]memory.Region, cfg.Stages+1)
	var err error
	for i := range queues {
		if queues[i], err = arena.Alloc(cfg.QueueBytes, memory.LineSize); err != nil {
			return nil, err
		}
	}
	states := make([]memory.Region, cfg.Stages)
	for i := range states {
		if states[i], err = arena.Alloc(cfg.StageStateBytes, memory.LineSize); err != nil {
			return nil, err
		}
	}
	spec := &Spec{Name: "staged", NumPartitions: cfg.Stages}
	total := cfg.Stages * cfg.ThreadsPerStage
	for i := 0; i < total; i++ {
		stage := i % cfg.Stages
		scratch, err := arena.Alloc(cfg.ScratchBytes, memory.LineSize)
		if err != nil {
			return nil, err
		}
		w := &stagedWorker{
			cursor:   cursor{rng: *rng.New(streamSeed(cfg.Seed, streamStaged, i))},
			inbound:  queues[stage],
			outbound: queues[stage+1],
			state:    states[stage],
			scratch:  scratch,
		}
		spec.Threads = append(spec.Threads, &sim.Thread{
			ID:        sched.ThreadID(i),
			Gen:       w,
			Partition: stage,
		})
	}
	return spec, nil
}
