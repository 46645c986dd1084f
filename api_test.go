package threadcluster_test

import (
	"context"
	"fmt"
	"testing"

	"threadcluster"
)

// Example is the library quickstart: scatter a sharing workload, attach
// the engine, and watch the clusters form.
func Example() {
	mcfg := threadcluster.DefaultMachineConfig()
	mcfg.Policy = threadcluster.PolicyRoundRobin // worst-case scatter
	mcfg.QuantumCycles = 20_000
	machine, err := threadcluster.NewMachine(mcfg)
	if err != nil {
		panic(err)
	}
	defer machine.Close() // recycles the cache slabs; read results first

	arena := threadcluster.NewArena()
	spec, err := threadcluster.NewSyntheticWorkload(arena, threadcluster.DefaultSyntheticConfig())
	if err != nil {
		panic(err)
	}
	if err := spec.Install(machine); err != nil {
		panic(err)
	}

	ecfg := threadcluster.DefaultEngineConfig()
	ecfg.MonitorWindow = 200_000 // scaled to simulation time
	ecfg.ActivationFraction = 0.05
	ecfg.TargetSamples = 30_000
	ecfg.SamplingInterval = 5
	engine, err := threadcluster.NewEngine(machine, ecfg)
	if err != nil {
		panic(err)
	}
	if err := engine.Install(); err != nil {
		panic(err)
	}

	machine.RunRoundsCtx(context.Background(), 3000)
	big := 0
	for _, c := range engine.Clusters() {
		if c.Size() >= 4 {
			big++
		}
	}
	fmt.Printf("detected %d scoreboard clusters\n", big)
	// Output: detected 4 scoreboard clusters
}

// TestPublicSnapshotRoundTrip is the doc-comment session run for real:
// build → run → snapshot → restore → resume must be indistinguishable
// from an uninterrupted run, through the public API only.
func TestPublicSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	mcfg := threadcluster.DefaultMachineConfig()
	mcfg.Policy = threadcluster.PolicyClustered
	mcfg.QuantumCycles = 20_000
	install := func(m *threadcluster.Machine) error {
		arena := threadcluster.NewArena()
		spec, err := threadcluster.NewSyntheticWorkload(arena, threadcluster.DefaultSyntheticConfig())
		if err != nil {
			return err
		}
		if err := spec.Install(m); err != nil {
			return err
		}
		ecfg := threadcluster.DefaultEngineConfig()
		ecfg.MonitorWindow = 200_000
		ecfg.ActivationFraction = 0.05
		ecfg.TargetSamples = 30_000
		ecfg.SamplingInterval = 5
		engine, err := threadcluster.NewEngine(m, ecfg)
		if err != nil {
			return err
		}
		return engine.Install()
	}
	build := func() *threadcluster.Machine {
		m, err := threadcluster.NewMachine(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := install(m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	ref := build()
	if err := ref.RunRoundsCtx(ctx, 400); err != nil {
		t.Fatal(err)
	}
	refSnap, err := ref.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}

	half := build()
	if err := half.RunRoundsCtx(ctx, 200); err != nil {
		t.Fatal(err)
	}
	snap, err := half.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := threadcluster.DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := threadcluster.RestoreMachine(mcfg, decoded, install)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RunRoundsCtx(ctx, 200); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != refSnap.Digest() {
		t.Fatal("resumed run is not byte-identical to the uninterrupted run")
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	machine, err := threadcluster.NewMachine(threadcluster.DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if machine.Topology() != threadcluster.OpenPower720() {
		t.Error("default machine should be the OpenPower 720")
	}
	arena := threadcluster.NewArena()
	spec, err := threadcluster.NewVolanoWorkload(arena, threadcluster.DefaultVolanoConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Install(machine); err != nil {
		t.Fatal(err)
	}
	machine.RunRoundsCtx(context.Background(), 10)
	if machine.TotalOps() == 0 {
		t.Error("workload made no progress through the public API")
	}
	if threadcluster.LineSize != 128 {
		t.Error("public line size should be 128 bytes")
	}
	if lat := threadcluster.DefaultLatencies(); lat.RemoteL2 < 120 {
		t.Error("public latencies should carry the Figure 1 cliff")
	}
}
