package sim_test

import (
	"context"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/sim"
	"threadcluster/internal/workloads"
)

// The fresh/recycled pair times one whole short job the way a sweep cell
// or a tcsimd job runs it — build the volano workload and the OpenPower
// 720 machine, three scheduling rounds, done — and differs only in what
// happens to the machine afterwards: dropped for the collector, so every
// build allocates, zeroes and tag-fills 10.6 MB of cache slabs, or
// closed, so the next build resets the few sets this one touched. `make
// bench-compare` holds the ratio against BENCH_sim.json.
func BenchmarkNewMachineFresh(b *testing.B)    { benchShortJob(b, false) }
func BenchmarkNewMachineRecycled(b *testing.B) { benchShortJob(b, true) }

func benchShortJob(b *testing.B, closeMachine bool) {
	ctx := context.Background()
	cfg := sim.DefaultConfig()
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
