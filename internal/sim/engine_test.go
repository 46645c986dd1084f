package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"threadcluster/internal/cache"
	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/pmu"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/topology"
)

// diffGen is the differential harness's randomized workload: a mix of
// private churn, group-shared read/write traffic and occasional global
// touches, all driven by a per-thread RNG. It is confined (own RNG, own
// counters, immutable Region descriptors), so machines running it are
// eligible for the deferred chip-parallel engine.
type diffGen struct {
	rng     *rng.Rand
	private memory.Region
	shared  memory.Region
	global  memory.Region
	step    int
}

// Confined marks the generator parallel-safe for the engine differential.
func (g *diffGen) Confined() {}

// SnapshotState returns the generator's cursor (RNG position and step).
func (g *diffGen) SnapshotState() []byte {
	e := &snapbin.Enc{}
	st := g.rng.State()
	e.I64(st.Seed)
	e.U64(st.Draws)
	e.I64(int64(g.step))
	return e.Bytes()
}

// RestoreState overwrites the generator's cursor.
func (g *diffGen) RestoreState(state []byte) error {
	d := snapbin.NewDec(state)
	seed := d.I64()
	draws := d.U64()
	step := d.I64()
	if err := d.Close(); err != nil {
		return err
	}
	g.step = int(step)
	return g.rng.Restore(rng.State{Seed: seed, Draws: draws})
}

func (g *diffGen) Next() MemRef {
	g.step++
	ref := MemRef{Insts: 10}
	switch {
	case g.step%5 == 0: // group-shared line, half writes
		ref.Addr = lineIn(g.rng, g.shared)
		ref.Write = g.rng.Intn(2) == 0
		ref.Ops = 1
	case g.step%17 == 0: // global state, occasional update
		ref.Addr = lineIn(g.rng, g.global)
		ref.Write = g.rng.Intn(8) == 0
	default: // private working set
		ref.Addr = lineIn(g.rng, g.private)
		ref.Write = g.rng.Intn(3) == 0
		ref.BranchStall = uint64(g.rng.Intn(3))
		ref.OtherStall = uint64(g.rng.Intn(5))
	}
	return ref
}

func lineIn(g *rng.Rand, r memory.Region) memory.Addr {
	off := uint64(g.Intn(int(r.Size/memory.LineSize))) * memory.LineSize
	return r.At(off)
}

// diffTopo describes one differential scenario.
type diffTopo struct {
	name string
	topo topology.Topology
	numa bool
}

func diffTopologies() []diffTopo {
	return []diffTopo{
		{name: "open720", topo: topology.OpenPower720()},
		{name: "power5-32way", topo: topology.Power5_32Way()},
		{name: "open720-numa", topo: topology.OpenPower720(), numa: true},
	}
}

// diffConfig is the differential scenario's machine configuration.
func diffConfig(sc diffTopo, engine Engine, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Topo = sc.topo
	cfg.Engine = engine
	cfg.Seed = seed
	// SmallConfig keeps working sets colliding (evictions, L3 traffic)
	// without gigantic regions, and its set counts are powers of two.
	cfg.Caches = cache.SmallConfig()
	cfg.Caches.Coherence = cache.CoherenceDirectory
	if sc.numa {
		cfg.Lat = topology.NUMALatencies()
	}
	return cfg
}

// diffInstall builds the scenario's randomized workload onto a fresh
// machine, deterministically from seed. Thread count oversubscribes the
// machine 2:1 so scheduling stays busy, and sharing groups span chips so
// cross-chip coherence traffic actually flows. Splitting the installer
// from the config is what lets the snapshot tests rebuild an identical
// machine through RestoreMachine.
func diffInstall(sc diffTopo, seed int64) func(*Machine) error {
	return func(m *Machine) error {
		const stripe = 1 << 32
		nodes := memory.StripedNodes{N: sc.topo.Chips, Stripe: stripe}
		arenas := []*memory.Arena{memory.NewDefaultArena()}
		if sc.numa {
			var err error
			if arenas, err = memory.NodeArenas(nodes); err != nil {
				return err
			}
			m.Hierarchy().SetNUMA(nodes)
		}
		arena := func(i int) *memory.Arena { return arenas[i%len(arenas)] }

		seeder := rand.New(rand.NewSource(seed))
		nThreads := 2 * sc.topo.NumCPUs()
		nGroups := sc.topo.Chips // groups interleave across chips below
		shared := make([]memory.Region, nGroups)
		for i := range shared {
			shared[i] = arena(i).MustAlloc(8*memory.LineSize, memory.LineSize)
		}
		global := arena(0).MustAlloc(4*memory.LineSize, memory.LineSize)
		for i := 0; i < nThreads; i++ {
			g := &diffGen{
				rng:     rng.New(seeder.Int63()),
				private: arena(i).MustAlloc(16<<10, memory.LineSize),
				shared:  shared[i%nGroups],
				global:  global,
			}
			if err := m.AddThread(&Thread{ID: sched.ThreadID(i), Gen: g, Partition: i % nGroups}); err != nil {
				return err
			}
		}
		return nil
	}
}

// buildDiffMachine constructs a machine plus its randomized workload.
func buildDiffMachine(t testing.TB, sc diffTopo, engine Engine, seed int64) *Machine {
	t.Helper()
	m, err := NewMachine(diffConfig(sc, engine, seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := diffInstall(sc, seed)(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// enableCapture turns on per-CPU AccessResult recording (test-only; the
// benchmarks share buildDiffMachine and must stay allocation-free).
func enableCapture(m *Machine) {
	m.capture = make([][]cache.AccessResult, m.topo.NumCPUs())
}

// diffState flattens everything the differential compares: per-CPU access
// streams, per-CPU PMU counts, hierarchy counters, per-thread accounting
// and the full metrics snapshot (as its canonical JSON bytes).
type diffState struct {
	capture  [][]cache.AccessResult
	pmu      [][pmu.NumEvents]uint64
	srcN     [cache.NumSources]uint64
	srcCyc   [cache.NumSources]uint64
	inval    uint64
	upgrades uint64
	wbacks   uint64
	snoops   uint64
	dirLines int
	dirPeak  int
	threads  map[sched.ThreadID][4]uint64
	snapshot []byte
}

func captureState(t *testing.T, m *Machine) diffState {
	t.Helper()
	h := m.Hierarchy()
	st := diffState{
		capture:  m.capture,
		srcN:     h.SourceCounts(),
		srcCyc:   h.SourceCycles(),
		inval:    h.InvalidationsSent(),
		upgrades: h.Upgrades(),
		wbacks:   h.Writebacks(),
		snoops:   h.SnoopProbesAvoided(),
		dirLines: h.DirectoryLines(),
		dirPeak:  h.DirectoryPeakLines(),
		threads:  make(map[sched.ThreadID][4]uint64),
	}
	for c := 0; c < m.topo.NumCPUs(); c++ {
		var ev [pmu.NumEvents]uint64
		for e := 0; e < pmu.NumEvents; e++ {
			ev[e] = m.PMU(topology.CPUID(c)).Count(pmu.Event(e))
		}
		st.pmu = append(st.pmu, ev)
	}
	for _, th := range m.Threads() {
		st.threads[th.ID] = [4]uint64{th.Cycles, th.Insts, th.Ops, th.RemoteMisses}
	}
	var buf bytes.Buffer
	if err := m.SnapshotMetrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st.snapshot = buf.Bytes()
	return st
}

// diffStates fails the test with the first divergence between the
// reference (seq) and candidate (parallel) states.
func diffStates(t *testing.T, ref, got diffState) {
	t.Helper()
	for c := range ref.capture {
		if len(ref.capture[c]) != len(got.capture[c]) {
			t.Fatalf("cpu %d: access stream length %d vs %d", c, len(ref.capture[c]), len(got.capture[c]))
		}
		for i := range ref.capture[c] {
			if ref.capture[c][i] != got.capture[c][i] {
				t.Fatalf("cpu %d access %d: %+v vs %+v", c, i, ref.capture[c][i], got.capture[c][i])
			}
		}
	}
	for c := range ref.pmu {
		if ref.pmu[c] != got.pmu[c] {
			t.Fatalf("cpu %d PMU counts diverge:\nseq:      %v\nparallel: %v", c, ref.pmu[c], got.pmu[c])
		}
	}
	if ref.srcN != got.srcN || ref.srcCyc != got.srcCyc {
		t.Fatalf("source attribution diverges:\nseq:      %v / %v\nparallel: %v / %v",
			ref.srcN, ref.srcCyc, got.srcN, got.srcCyc)
	}
	if ref.inval != got.inval || ref.upgrades != got.upgrades || ref.wbacks != got.wbacks ||
		ref.snoops != got.snoops || ref.dirLines != got.dirLines || ref.dirPeak != got.dirPeak {
		t.Fatalf("coherence counters diverge:\nseq:      inval=%d upg=%d wb=%d snoop=%d dir=%d/%d\nparallel: inval=%d upg=%d wb=%d snoop=%d dir=%d/%d",
			ref.inval, ref.upgrades, ref.wbacks, ref.snoops, ref.dirLines, ref.dirPeak,
			got.inval, got.upgrades, got.wbacks, got.snoops, got.dirLines, got.dirPeak)
	}
	for id, want := range ref.threads {
		if got.threads[id] != want {
			t.Fatalf("thread %d accounting diverges: %v vs %v", id, want, got.threads[id])
		}
	}
	if !bytes.Equal(ref.snapshot, got.snapshot) {
		t.Fatalf("metrics snapshots diverge:\nseq:      %s\nparallel: %s", ref.snapshot, got.snapshot)
	}
}

// TestEngineDifferential replays the same randomized multi-chip workload
// through the sequential and parallel engines and requires byte-identical
// results — access streams, PMU counters, coherence counters, per-thread
// accounting and metrics snapshots — for every GOMAXPROCS in {1, 2,
// NumCPU}. This is the tentpole's determinism proof; it must also pass
// under -race (see the race CI job).
func TestEngineDifferential(t *testing.T) {
	const seed = 42
	const rounds = 40
	ctx := context.Background()
	for _, sc := range diffTopologies() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			seq := buildDiffMachine(t, sc, EngineSeq, seed)
			enableCapture(seq)
			if err := seq.RunRoundsCtx(ctx, rounds); err != nil {
				t.Fatal(err)
			}
			if seq.parallelRounds != 0 {
				t.Fatalf("seq engine ran %d parallel rounds", seq.parallelRounds)
			}
			if err := seq.Hierarchy().CheckDirectory(); err != nil {
				t.Fatalf("seq directory check: %v", err)
			}
			ref := captureState(t, seq)

			for _, procs := range gomaxprocsLevels() {
				procs := procs
				t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
					old := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(old)
					par := buildDiffMachine(t, sc, EngineParallel, seed)
					enableCapture(par)
					if err := par.RunRoundsCtx(ctx, rounds); err != nil {
						t.Fatal(err)
					}
					if par.parallelRounds == 0 {
						t.Fatal("parallel engine never took the chip-parallel path")
					}
					if err := par.Hierarchy().CheckDirectory(); err != nil {
						t.Fatalf("parallel directory check: %v", err)
					}
					diffStates(t, ref, captureState(t, par))
				})
			}
		})
	}
}

func gomaxprocsLevels() []int {
	levels := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		levels = append(levels, n)
	}
	return levels
}

// TestEngineFallbackIdentical runs the same workload with an unconfined
// generator wrapper, forcing the legacy serial immediate-coherence loop,
// and checks the parallel engine still drives it correctly (it must simply
// never take the deferred path).
func TestEngineFallbackUnconfined(t *testing.T) {
	sc := diffTopo{name: "open720", topo: topology.OpenPower720()}
	m := buildDiffMachine(t, sc, EngineParallel, 7)
	// Re-wrap every generator so no running thread is confined; eligibility
	// is per round over the *running* threads, so a single unconfined
	// thread only blocks the rounds it is dispatched in.
	for _, th := range m.Threads() {
		id, gen := th.ID, th.Gen
		if err := m.RemoveThread(id); err != nil {
			t.Fatal(err)
		}
		if err := m.AddThread(&Thread{ID: id, Gen: unconfined{gen}}); err != nil {
			t.Fatal(err)
		}
	}
	m.RunRoundsCtx(context.Background(), 10)
	if m.parallelRounds != 0 {
		t.Fatalf("unconfined workload took the parallel path %d times", m.parallelRounds)
	}
	if m.Clock() == 0 {
		t.Fatal("machine did not run")
	}
}

type unconfined struct{ g Generator }

func (u unconfined) Next() MemRef { return u.g.Next() }

// runsOf hands diffGen's stream out in runs of seeded random lengths,
// drawn ahead through Next. It keeps diffGen's confinement, so its rounds
// defer exactly where diffGen's do.
type runsOf struct {
	*diffGen
	cut *rng.Rand
	buf []MemRef
}

func (g *runsOf) NextRun() []MemRef {
	g.buf = g.buf[:0]
	for n := 1 + g.cut.Intn(16); n > 0; n-- {
		g.buf = append(g.buf, g.diffGen.Next())
	}
	return g.buf
}

// withGenerators re-adds every thread of a diff machine, in order, with
// its generator replaced by wrap(thread id, generator).
func withGenerators(t *testing.T, m *Machine, wrap func(sched.ThreadID, *diffGen) Generator) *Machine {
	t.Helper()
	for _, th := range m.Threads() {
		id, partition, g := th.ID, th.Partition, th.Gen.(*diffGen)
		if err := m.RemoveThread(id); err != nil {
			t.Fatal(err)
		}
		if err := m.AddThread(&Thread{ID: id, Gen: wrap(id, g), Partition: partition}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func nextOnly(_ sched.ThreadID, g *diffGen) Generator { return g }

func inRuns(id sched.ThreadID, g *diffGen) Generator {
	return &runsOf{diffGen: g, cut: rng.New(int64(id))}
}

// TestNextAdapterMatchesRuns: diffGen implements only Next, so AddThread
// gives it the one-slot adapter. The same streams handed out in runs of
// up to sixteen references, whose tails wait on their threads across
// slices and rounds, must drive the machine identically: per-CPU
// AccessResult capture, PMU and coherence counters, per-thread accounting
// and metrics, under both engines (chip-parallel under EngineParallel,
// where each chip's goroutine carries its threads' pending runs).
func TestNextAdapterMatchesRuns(t *testing.T) {
	const seed, rounds = 11, 30
	ctx := context.Background()
	sc := diffTopo{name: "power5-32way", topo: topology.Power5_32Way()}
	for _, engine := range []Engine{EngineSeq, EngineParallel} {
		t.Run(engine.String(), func(t *testing.T) {
			next := withGenerators(t, buildDiffMachine(t, sc, engine, seed), nextOnly)
			runs := withGenerators(t, buildDiffMachine(t, sc, engine, seed), inRuns)
			if _, ok := next.Threads()[0].runs.(*nextRuns); !ok {
				t.Fatalf("a Next-only generator runs through %T, want the one-slot adapter", next.Threads()[0].runs)
			}
			for _, m := range []*Machine{next, runs} {
				enableCapture(m)
				if err := m.RunRoundsCtx(ctx, rounds); err != nil {
					t.Fatal(err)
				}
			}
			if engine == EngineParallel && runs.parallelRounds == 0 {
				t.Fatal("the runs machine never took the chip-parallel path")
			}
			held := 0
			for _, th := range runs.Threads() {
				held += len(th.pending)
			}
			if held == 0 {
				t.Fatal("no run outlived its slice: the test exercises nothing")
			}
			diffStates(t, captureState(t, next), captureState(t, runs))
		})
	}
}

// TestSnapshotRefusesPendingRun: a thread holding unconsumed references
// of a run cannot be snapshotted, since its generator's cursor is already
// past them and a restore would skip them.
func TestSnapshotRefusesPendingRun(t *testing.T) {
	ctx := context.Background()
	m := withGenerators(t, buildDiffMachine(t, diffTopologies()[0], EngineSeq, 5), inRuns)
	if _, err := m.Snapshot(ctx); err != nil {
		t.Fatalf("a machine that has not run holds no run: %v", err)
	}
	if err := m.RunRoundsCtx(ctx, 3); err != nil {
		t.Fatal(err)
	}
	held := false
	for _, th := range m.Threads() {
		held = held || len(th.pending) > 0
	}
	if !held {
		t.Fatal("no thread holds a pending run")
	}
	if _, err := m.Snapshot(ctx); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("snapshot with a pending run: %v, want ErrBadConfig", err)
	}
}

// TestRunSliceZeroAlloc pins the engine's allocation-free hot path: after
// warm-up, driving a full deferred slice sweep — every chip's CPUs through
// runSlice plus the slice barrier, exactly what one parallel worker set
// executes — must not allocate. (The parallel driver itself additionally
// spawns its per-slice goroutines; the per-access and per-slice work they
// run is what this guards.)
func TestRunSliceZeroAlloc(t *testing.T) {
	sc := diffTopo{name: "power5-32way", topo: topology.Power5_32Way()}
	m := buildDiffMachine(t, sc, EngineSeq, 3)
	if err := m.RunRoundsCtx(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if !m.deferredRound() {
		t.Fatal("bench workload should be eligible for the deferred model")
	}
	budget := m.cfg.QuantumCycles / uint64(m.cfg.InterleaveSlices)
	sweep := func() {
		for chip := 0; chip < m.topo.Chips; chip++ {
			m.runChipSlice(chip, budget)
		}
		m.hier.SliceBarrier()
	}
	for i := 0; i < 50; i++ {
		sweep()
	}
	if avg := testing.AllocsPerRun(100, sweep); avg != 0 {
		t.Fatalf("deferred slice sweep allocates %v allocs/run, want 0", avg)
	}
}

// TestEngineSingleChipFallsBack checks the eligibility gate: a one-chip
// machine has no cross-chip traffic to defer and must use the serial loop
// even under the parallel engine.
func TestEngineSingleChipFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topo = topology.NiagaraLike()
	cfg.Caches = cache.SmallConfig()
	cfg.Caches.Coherence = cache.CoherenceDirectory
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arena := memory.NewDefaultArena()
	g := &diffGen{
		rng:     rng.New(1),
		private: arena.MustAlloc(16<<10, memory.LineSize),
		shared:  arena.MustAlloc(8*memory.LineSize, memory.LineSize),
		global:  arena.MustAlloc(4*memory.LineSize, memory.LineSize),
	}
	if err := m.AddThread(&Thread{ID: 1, Gen: g}); err != nil {
		t.Fatal(err)
	}
	m.RunRoundsCtx(context.Background(), 5)
	if m.parallelRounds != 0 {
		t.Fatalf("single-chip machine took the parallel path %d times", m.parallelRounds)
	}
}
