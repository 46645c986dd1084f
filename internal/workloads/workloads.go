package workloads

import (
	"fmt"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/snapbin"
)

// Spec is a fully built workload: the threads to schedule plus the
// ground-truth partition used by the hand-optimized placement policy and
// by cluster-quality validation (the automatic engine never sees it).
type Spec struct {
	// Name identifies the workload ("microbenchmark", "volano", ...).
	Name string
	// Threads are ready to be added to a sim.Machine.
	Threads []*sim.Thread
	// NumPartitions is the number of application-level data partitions
	// (scoreboards, rooms, warehouses, database instances).
	NumPartitions int
}

// PartitionHint adapts the spec's ground truth to the scheduler's
// hand-optimized policy interface.
func (s *Spec) PartitionHint() func(sched.ThreadID) int {
	byID := make(map[sched.ThreadID]int, len(s.Threads))
	for _, t := range s.Threads {
		byID[t.ID] = t.Partition
	}
	return func(id sched.ThreadID) int { return byID[id] }
}

// Truth returns the ground-truth partition map keyed the way the
// clustering validators expect.
func (s *Spec) Truth() map[int]int {
	truth := make(map[int]int, len(s.Threads))
	for _, t := range s.Threads {
		truth[int(t.ID)] = t.Partition
	}
	return truth
}

// Renumber shifts every thread id by offset, so multiple specs can share
// one machine without id collisions (multiprogrammed experiments).
func (s *Spec) Renumber(offset int) {
	for _, t := range s.Threads {
		t.ID += sched.ThreadID(offset)
	}
}

// Install adds every thread to the machine and, when the machine runs the
// hand-optimized policy, wires the partition hint first.
func (s *Spec) Install(m *sim.Machine) error {
	if m.Scheduler().Policy() == sched.PolicyHandOptimized {
		m.Scheduler().SetPartitionHint(s.PartitionHint())
	}
	for _, t := range s.Threads {
		if err := m.AddThread(t); err != nil {
			return fmt.Errorf("workloads: installing %s: %w", s.Name, err)
		}
	}
	return nil
}

// regionSize is one configured region size and the number of whole cache
// lines its generator indexes into it: 1 for pick, the hot-line count for
// pickHot.
type regionSize struct {
	field string
	bytes uint64
	lines uint64
}

// checkRegions rejects, at construction, region sizes that pick or pickHot
// would otherwise panic on inside Next() — on whatever sweep or daemon
// worker goroutine happened to run the machine.
func checkRegions(workload string, regions ...regionSize) error {
	for _, r := range regions {
		if r.bytes/memory.LineSize < r.lines {
			return fmt.Errorf("workloads: %s %s = %d bytes, needs at least %d whole %d-byte lines: %w",
				workload, r.field, r.bytes, r.lines, memory.LineSize, errs.ErrBadConfig)
		}
	}
	return nil
}

// Stream families, one per workload. Every generator is seeded with
// streamSeed(cfg.Seed, family, index): the family keeps two workloads
// configured with one seed (and the engine, which derives its own
// stream from it, and the scheduler, which draws from the seed's own
// stream) off each other's streams; the index is the thread's
// position, or populationStream for the generator that fills a B-tree.
const (
	streamSynthetic = 1 + iota
	streamVolano
	streamJBB
	streamRubis

	populationStream = -1
)

func streamSeed(seed int64, family, index int) int64 {
	return rng.Derive(rng.Derive(seed, family), index)
}

// pick returns a uniformly random line-aligned address inside the region.
func pick(g *rng.Rand, r memory.Region) memory.Addr {
	lines := int(r.Size / memory.LineSize)
	return r.At(uint64(g.Intn(lines)) * memory.LineSize)
}

// pickHot returns an address from the first hotLines lines of the region
// with probability hotProb, else a uniform pick — a cheap two-tier
// approximation of the skewed accesses real servers exhibit.
func pickHot(g *rng.Rand, r memory.Region, hotLines int, hotProb float64) memory.Addr {
	if g.Float64() < hotProb {
		return r.At(uint64(g.Intn(hotLines)) * memory.LineSize)
	}
	return pick(g, r)
}

// traceGenerator replays queued address traces (e.g. a B-tree operation's
// touched nodes) as MemRefs, asking a refill function for the next
// operation when the queue drains. The refill's last reference carries the
// op-completion marker. refill is only ever called with the previous queue
// fully consumed, so it may hand back the same backing array every time.
type traceGenerator struct {
	queue  []sim.MemRef
	next   int // cursor into queue
	refill func() []sim.MemRef
}

func (g *traceGenerator) Next() sim.MemRef {
	run := g.NextRun()
	g.next -= len(run) - 1
	return run[0]
}

// NextRun returns the rest of the current operation's references. It
// refills only when the machine needs a reference past them, so the
// operations mutate their shared tree in the order Next would.
func (g *traceGenerator) NextRun() []sim.MemRef {
	for g.next == len(g.queue) {
		g.queue, g.next = g.refill(), 0
	}
	run := g.queue[g.next:]
	g.next = len(g.queue)
	return run
}

// stallNoise returns small random branch/other stall cycles so the CPI
// stack has the non-dcache components visible in Figure 3.
func stallNoise(g *rng.Rand, branchMax, otherMax uint64) (branch, other uint64) {
	if branchMax > 0 {
		branch = uint64(g.Int63n(int64(branchMax + 1)))
	}
	if otherMax > 0 {
		other = uint64(g.Int63n(int64(otherMax + 1)))
	}
	return branch, other
}

// cursor is a confined generator's position: its RNG and its step count,
// everything its Next stream depends on beyond construction. save and
// restore are the generators' SnapshotState and RestoreState blob: RNG
// seed, RNG draws, step.
type cursor struct {
	rng  rng.Rand
	step uint64
}

func (c *cursor) save() []byte {
	e := &snapbin.Enc{}
	st := c.rng.State()
	e.I64(st.Seed)
	e.U64(st.Draws)
	e.U64(c.step)
	return e.Bytes()
}

// restore overwrites the cursor with a save blob from an identically
// constructed generator.
func (c *cursor) restore(state []byte) error {
	d := snapbin.NewDec(state)
	st := rng.State{Seed: d.I64(), Draws: d.U64()}
	step := d.U64()
	if err := d.Close(); err != nil {
		return fmt.Errorf("workloads: generator cursor: %w", err)
	}
	c.step = step
	return c.rng.Restore(st)
}
