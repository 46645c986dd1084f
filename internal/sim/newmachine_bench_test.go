package sim_test

import (
	"context"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/sim"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// The fresh/recycled pairs time one whole short job the way a sweep cell
// or a tcsimd job runs it — build the volano workload and the machine
// (the OpenPower 720, or the 32-way Power5), three scheduling rounds, done
// — and differ only in what happens to the machine afterwards: dropped
// for the collector, so the next job allocates and tag-fills every slab
// its references build, or closed, so the next job builds on this one's
// slabs after a reset of the few sets it touched. Volano never casts out
// of an L2, so neither side builds a victim L3 and the two are close:
// `make bench-compare` holds "recycling must never cost" against
// BENCH_sim.json, which also records B/op.
func BenchmarkNewMachineFresh(b *testing.B)    { benchShortJob(b, topology.OpenPower720(), false) }
func BenchmarkNewMachineRecycled(b *testing.B) { benchShortJob(b, topology.OpenPower720(), true) }

func BenchmarkNewMachineFresh32Way(b *testing.B) { benchShortJob(b, topology.Power5_32Way(), false) }
func BenchmarkNewMachineRecycled32Way(b *testing.B) {
	benchShortJob(b, topology.Power5_32Way(), true)
}

func benchShortJob(b *testing.B, topo topology.Topology, closeMachine bool) {
	ctx := context.Background()
	cfg := sim.DefaultConfig()
	cfg.Topo = topo
	cfg.QuantumCycles = 20_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, err := workloads.NewVolano(memory.NewDefaultArena(), workloads.DefaultVolanoConfig())
		if err != nil {
			b.Fatal(err)
		}
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := spec.Install(m); err != nil {
			b.Fatal(err)
		}
		if err := m.RunRoundsCtx(ctx, 3); err != nil {
			b.Fatal(err)
		}
		if closeMachine {
			m.Close()
		}
	}
}
