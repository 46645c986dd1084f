package core

import (
	"context"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/snapbin"
)

// confinedSharer is the groupSharer made snapshot-capable: own RNG, own
// cursor, immutable Region descriptors.
type confinedSharer struct {
	rng     *rng.Rand
	private memory.Region
	shared  memory.Region
	ratio   float64
}

func (g *confinedSharer) Confined() {}

func (g *confinedSharer) Next() sim.MemRef {
	if g.rng.Float64() < g.ratio {
		lines := g.shared.Size / memory.LineSize
		off := uint64(g.rng.Intn(int(lines))) * memory.LineSize
		return sim.MemRef{Addr: g.shared.At(off), Write: g.rng.Intn(3) == 0, Insts: 8, Ops: 1}
	}
	lines := g.private.Size / memory.LineSize
	off := uint64(g.rng.Intn(int(lines))) * memory.LineSize
	return sim.MemRef{Addr: g.private.At(off), Write: false, Insts: 8, Ops: 1}
}

func (g *confinedSharer) SnapshotState() []byte {
	e := &snapbin.Enc{}
	st := g.rng.State()
	e.I64(st.Seed)
	e.U64(st.Draws)
	return e.Bytes()
}

func (g *confinedSharer) RestoreState(state []byte) error {
	d := snapbin.NewDec(state)
	seed := d.I64()
	draws := d.U64()
	if err := d.Close(); err != nil {
		return err
	}
	return g.rng.Restore(rng.State{Seed: seed, Draws: draws})
}

// installConfinedWorkload adds the interleaved sharing groups plus the
// clustering engine to a fresh machine — the install callback the
// snapshot tests hand to sim.RestoreMachine.
func installConfinedWorkload(nGroups, perGroup int, seed int64, ecfg Config) func(*sim.Machine) error {
	return func(m *sim.Machine) error {
		arena := memory.NewDefaultArena()
		shared := make([]memory.Region, nGroups)
		for g := range shared {
			shared[g] = arena.MustAlloc(16*memory.LineSize, 0)
		}
		for i := 0; i < nGroups*perGroup; i++ {
			g := i % nGroups
			gen := &confinedSharer{
				rng:     rng.New(seed*1000 + int64(i)),
				private: arena.MustAlloc(64<<10, 0),
				shared:  shared[g],
				ratio:   0.4,
			}
			if err := m.AddThread(&sim.Thread{ID: sched.ThreadID(i), Gen: gen, Partition: g}); err != nil {
				return err
			}
		}
		e, err := New(m, ecfg)
		if err != nil {
			return err
		}
		return e.Install()
	}
}

// TestEngineStateRoundTrip pins the engine's ride-along in machine
// snapshots: an uninterrupted N+M-round run with the clustering engine
// installed must end in the same machine state — snapshot digest
// included, which covers the engine's own core.engine section — as a run
// that snapshots at round N, rebuilds everything from config, restores,
// and runs M more rounds. The detection machinery is mid-flight at the
// snapshot point (shMaps filling, filters claimed, jitter RNG advanced),
// so the test fails if any of that state is lost or drifts.
func TestEngineStateRoundTrip(t *testing.T) {
	const nGroups, perGroup, seed = 2, 4, 11
	const preRounds, postRounds = 30, 30
	ctx := context.Background()

	mcfg := sim.DefaultConfig()
	mcfg.Policy = sched.PolicyClustered
	mcfg.QuantumCycles = 20_000
	mcfg.Seed = seed
	ecfg := testEngineConfig()
	install := installConfinedWorkload(nGroups, perGroup, seed, ecfg)

	build := func() *sim.Machine {
		m, err := sim.NewMachine(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := install(m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	ref := build()
	if err := ref.RunRoundsCtx(ctx, preRounds+postRounds); err != nil {
		t.Fatal(err)
	}
	refSnap, err := ref.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	split := build()
	if err := split.RunRoundsCtx(ctx, preRounds); err != nil {
		t.Fatal(err)
	}
	snap, err := split.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range snap.Sections() {
		if name == StateProviderName {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot sections %v lack %q", snap.Sections(), StateProviderName)
	}
	decoded, err := sim.DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sim.RestoreMachine(mcfg, decoded, install)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RunRoundsCtx(ctx, postRounds); err != nil {
		t.Fatal(err)
	}
	gotSnap, err := restored.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gotSnap.Digest(), refSnap.Digest(); got != want {
		t.Fatalf("restored run diverges from uninterrupted run:\nrestored:      %s\nuninterrupted: %s", got, want)
	}
}

// TestEngineStateMidDetection snapshots while the engine is actively
// sampling (detection forced, target not yet reached) and checks phase,
// counters and shMap contents survive the round trip exactly.
func TestEngineStateMidDetection(t *testing.T) {
	const nGroups, perGroup, seed = 2, 4, 23
	ctx := context.Background()

	mcfg := sim.DefaultConfig()
	mcfg.Policy = sched.PolicyClustered
	mcfg.QuantumCycles = 20_000
	mcfg.Seed = seed
	ecfg := testEngineConfig()
	ecfg.TargetSamples = 1 << 30 // never finish: stay mid-detection

	buildWithHandle := func() (*sim.Machine, *Engine) {
		m, err := sim.NewMachine(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		arena := memory.NewDefaultArena()
		shared := make([]memory.Region, nGroups)
		for g := range shared {
			shared[g] = arena.MustAlloc(16*memory.LineSize, 0)
		}
		for i := 0; i < nGroups*perGroup; i++ {
			g := i % nGroups
			gen := &confinedSharer{
				rng:     rng.New(seed*1000 + int64(i)),
				private: arena.MustAlloc(64<<10, 0),
				shared:  shared[g],
				ratio:   0.4,
			}
			if err := m.AddThread(&sim.Thread{ID: sched.ThreadID(i), Gen: gen, Partition: g}); err != nil {
				t.Fatal(err)
			}
		}
		e, err := New(m, ecfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Install(); err != nil {
			t.Fatal(err)
		}
		return m, e
	}

	m, e := buildWithHandle()
	e.ForceDetection()
	if err := m.RunRoundsCtx(ctx, 20); err != nil {
		t.Fatal(err)
	}
	if e.Phase() != PhaseDetecting || e.SamplesRead() == 0 {
		t.Fatalf("test premise broken: phase %v, %d samples", e.Phase(), e.SamplesRead())
	}
	snap, err := m.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	m2, e2 := buildWithHandle()
	if err := m2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if e2.Phase() != e.Phase() {
		t.Fatalf("phase %v, want %v", e2.Phase(), e.Phase())
	}
	if e2.SamplesRead() != e.SamplesRead() || e2.SamplesAdmitted() != e.SamplesAdmitted() {
		t.Fatalf("samples %d/%d, want %d/%d",
			e2.SamplesAdmitted(), e2.SamplesRead(), e.SamplesAdmitted(), e.SamplesRead())
	}
	if e2.Activations() != e.Activations() {
		t.Fatalf("activations %d, want %d", e2.Activations(), e.Activations())
	}
	if len(e2.ShMaps()) != len(e.ShMaps()) {
		t.Fatalf("%d shMaps, want %d", len(e2.ShMaps()), len(e.ShMaps()))
	}
	for key, sm := range e.ShMaps() {
		sm2, ok := e2.ShMaps()[key]
		if !ok {
			t.Fatalf("shMap for thread %d lost", key)
		}
		for i := 0; i < sm.Len(); i++ {
			if sm2.Get(i) != sm.Get(i) {
				t.Fatalf("shMap for thread %d diverges at entry %d: %d, want %d", key, i, sm2.Get(i), sm.Get(i))
			}
		}
	}
	// Both machines now continue and must stay in lockstep.
	if err := m.RunRoundsCtx(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if err := m2.RunRoundsCtx(ctx, 10); err != nil {
		t.Fatal(err)
	}
	s1, err := m.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Digest() != s2.Digest() {
		t.Fatal("restored machine diverges from original over further rounds")
	}
}
