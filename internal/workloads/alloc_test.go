package workloads

import (
	"context"
	"math"
	"testing"

	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// TestBTreeGeneratorsAmortisedZeroAlloc pins the B-tree workloads'
// allocation-free reference generation: in steady state a transaction
// refills the worker's own buffers and walks inline nodes, so the only
// thing left that may allocate is a node split (one btreeNode per split,
// a few per thousand inserts).
func TestBTreeGeneratorsAmortisedZeroAlloc(t *testing.T) {
	jbb, err := NewJBB(memory.NewDefaultArena(), DefaultJBBConfig())
	if err != nil {
		t.Fatal(err)
	}
	rubis, err := NewRubis(memory.NewDefaultArena(), DefaultRubisConfig())
	if err != nil {
		t.Fatal(err)
	}
	const refsPerRun = 1000
	for _, spec := range []*Spec{jbb, rubis} {
		next := func() {
			for i := 0; i < refsPerRun; i++ {
				spec.Threads[i%len(spec.Threads)].Gen.Next()
			}
		}
		// Warm-up: grow every worker's buffers to their working size.
		for i := 0; i < 50; i++ {
			next()
		}
		if perRef := testing.AllocsPerRun(200, next) / refsPerRun; perRef >= 0.01 {
			t.Errorf("%s: %.4f allocs per reference in steady state, want < 0.01", spec.Name, perRef)
		}
	}
}

// TestSerialRoundsAmortisedZeroAlloc is the serial-path sibling of sim's
// TestRunSliceZeroAlloc (which drives confined generators through the
// deferred model; it lives here because sim cannot import workloads):
// specjbb is unconfined, so on the OpenPower 720 every round goes through
// the immediate-coherence loop — generator Next, Hierarchy.Access, PMU
// batch. Whole rounds through RunRoundsCtx must stay under ten allocations
// per thousand references — the ledger's sim.mallocs_per_kref bound. About
// four are left: the node splits of a tree that a quarter of the
// transactions insert into, and the scheduler's run-queue appends. Before
// the generators reused their buffers it was about 1400.
func TestSerialRoundsAmortisedZeroAlloc(t *testing.T) {
	spec, err := NewJBB(memory.NewDefaultArena(), DefaultJBBConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := buildMachine(t, spec, sched.PolicyDefault)
	ctx := context.Background()
	if err := m.RunRoundsCtx(ctx, 100); err != nil {
		t.Fatal(err)
	}
	refs := func() (n uint64) {
		for _, c := range m.Hierarchy().SourceCounts() {
			n += c
		}
		return n
	}
	const rounds = 10
	before := refs()
	perRun := testing.AllocsPerRun(10, func() {
		if err := m.RunRoundsCtx(ctx, rounds); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun runs the function once more to warm up: 11 runs in all.
	refsPerRun := float64(refs()-before) / 11
	if refsPerRun == 0 {
		t.Fatal("no references simulated")
	}
	if perKref := 1000 * perRun / refsPerRun; perKref >= 10 {
		t.Errorf("serial rounds allocate %.2f per 1000 references (%.0f allocs, %.0f refs per %d rounds), want < 10",
			perKref, perRun, refsPerRun, rounds)
	}
}

// TestArmedRoundsAmortisedZeroAlloc is the armed-handler sibling of
// TestSerialRoundsAmortisedZeroAlloc: volano under the clustering engine
// on the OpenPower 720, held mid-detection, so every CPU's remote-access
// counter carries an armed overflow handler. Such rounds never defer
// coherence, and every reference goes through PMU.Add with one event
// observed at once and the rest pending. Whole rounds must stay under
// one allocation per thousand references (about 0.2 measured: the
// scheduler's run-queue appends and the clustered policy's per-round
// balancing, none of them per reference).
func TestArmedRoundsAmortisedZeroAlloc(t *testing.T) {
	spec, err := NewVolano(memory.NewDefaultArena(), DefaultVolanoConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := sim.DefaultConfig() // full 100k-cycle quanta: per-round allocations spread thin
	mcfg.Policy = sched.PolicyClustered
	m, err := sim.NewMachine(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Install(m); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.TargetSamples = math.MaxInt // never leave detection
	e, err := core.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Install(); err != nil {
		t.Fatal(err)
	}
	e.ForceDetection()
	ctx := context.Background()
	if err := m.RunRoundsCtx(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if !m.PMU(0).HasArmedHandler() || e.Phase() != core.PhaseDetecting {
		t.Fatal("the engine is not sampling: no handler is armed")
	}
	refs := func() (n uint64) {
		for _, c := range m.Hierarchy().SourceCounts() {
			n += c
		}
		return n
	}
	const rounds = 10
	before, samples := refs(), e.SamplesRead()
	perRun := testing.AllocsPerRun(10, func() {
		if err := m.RunRoundsCtx(ctx, rounds); err != nil {
			t.Fatal(err)
		}
	})
	if e.SamplesRead() == samples {
		t.Fatal("no handler fired while measuring")
	}
	// AllocsPerRun runs the function once more to warm up: 11 runs in all.
	refsPerRun := float64(refs()-before) / 11
	if perKref := 1000 * perRun / refsPerRun; perKref >= 1 {
		t.Errorf("armed rounds allocate %.2f per 1000 references (%.0f allocs, %.0f refs per %d rounds), want < 1",
			perKref, perRun, refsPerRun, rounds)
	}
}
