package sim_test

import (
	"context"
	"runtime"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/sim"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// builtL3s runs the workload on the topology for the given rounds and
// returns how many of the machine's victim L3s have built their slabs.
func builtL3s(t *testing.T, topo topology.Topology, spec *workloads.Spec, rounds int) (built int) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Topo = topo
	// Two collections empty the slab pool, so every slab set the machine
	// ends up with is one it built.
	runtime.GC()
	runtime.GC()
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := spec.Install(m); err != nil {
		t.Fatal(err)
	}
	if err := m.RunRoundsCtx(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	for chip := 0; chip < topo.Chips; chip++ {
		l3 := m.Hierarchy().L3(chip)
		if (l3.Backing() != nil) != (l3.Stats().Fills != 0) {
			t.Errorf("chip %d L3: built=%v after %d fills", chip, l3.Backing() != nil, l3.Stats().Fills)
		}
		if l3.Backing() != nil {
			built++
		}
		if m.Hierarchy().L2(chip).Backing() == nil {
			t.Errorf("chip %d L2 is unbuilt after %d rounds", chip, rounds)
		}
	}
	return built
}

// TestUnusedVictimCacheIsNeverBuilt: the 36 MB victim L3 is filled only
// by L2 cast-outs, so a run whose working set stays in the L2s — volano
// on the 32-way machine, as in the machine-deferred-32way ledger workload
// — ends with all eight L3s unbuilt, while specjbb's growing B-trees on
// the OpenPower 720 do cast out and get their L3s built. Nothing selects
// between the two but the reference stream.
func TestUnusedVictimCacheIsNeverBuilt(t *testing.T) {
	volano, err := workloads.NewVolano(memory.NewDefaultArena(), workloads.DefaultVolanoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := builtL3s(t, topology.Power5_32Way(), volano, 40); n != 0 {
		t.Errorf("volano on the 32-way machine built %d of 8 victim L3s", n)
	}
	jbb, err := workloads.NewJBB(memory.NewDefaultArena(), workloads.DefaultJBBConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := builtL3s(t, topology.OpenPower720(), jbb, 100); n != 2 {
		t.Errorf("specjbb on the OpenPower 720 built %d of 2 victim L3s in 100 rounds", n)
	}
}
