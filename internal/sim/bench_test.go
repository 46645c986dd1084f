package sim

import (
	"context"
	"math/rand"
	"testing"

	"threadcluster/internal/cache"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/topology"
)

// BenchmarkMachineRound measures whole-simulator throughput: one
// scheduling round of the 8-way machine with 16 sharing threads.
func BenchmarkMachineRound(b *testing.B) {
	benchMachineRound(b, DefaultConfig())
}

// The broadcast/directory pair measures what the coherence fast path buys
// at the whole-machine level on the §7.4 32-way topology.
func BenchmarkMachineRound32WayBroadcast(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Topo = topology.Power5_32Way()
	cfg.Caches.Coherence = cache.CoherenceBroadcast
	benchMachineRound(b, cfg)
}

func BenchmarkMachineRound32WayDirectory(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Topo = topology.Power5_32Way()
	cfg.Caches.Coherence = cache.CoherenceDirectory
	benchMachineRound(b, cfg)
}

func benchMachineRound(b *testing.B, cfg Config) {
	cfg.Policy = sched.PolicyRoundRobin
	cfg.QuantumCycles = 20_000
	m, err := NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	arena := memory.NewDefaultArena()
	shared := []memory.Region{arena.MustAlloc(4096, 0), arena.MustAlloc(4096, 0)}
	for i := 0; i < 16; i++ {
		g := &sharer{
			rng:     rand.New(rand.NewSource(int64(i))),
			private: arena.MustAlloc(64<<10, 0),
			shared:  shared[i%2],
			ratio:   0.3,
		}
		if err := m.AddThread(&Thread{ID: sched.ThreadID(i), Gen: g}); err != nil {
			b.Fatal(err)
		}
	}
	runBenchRounds(b, m)
}

func runBenchRounds(b *testing.B, m *Machine) {
	b.Helper()
	ctx := context.Background()
	if err := m.RunRoundsCtx(ctx, 10); err != nil { // warm
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunRoundsCtx(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Breakdown().Insts)/float64(b.Elapsed().Seconds())/1e6, "Minsts/s")
}

// benchEngineMachine builds the 32-way machine with the confined
// differential workload, so rounds are eligible for the deferred
// chip-parallel model under either engine.
func benchEngineMachine(b *testing.B, engine Engine) *Machine {
	b.Helper()
	sc := diffTopo{name: "power5-32way", topo: topology.Power5_32Way()}
	return buildDiffMachine(b, sc, engine, 1)
}

// The seq/parallel pair is for `go test -bench` only; the guarded
// engine speedup is tcbench's sim.parallel_speedup.
func BenchmarkMachineRound32WaySeq(b *testing.B) {
	runBenchRounds(b, benchEngineMachine(b, EngineSeq))
}

func BenchmarkMachineRound32WayParallel(b *testing.B) {
	runBenchRounds(b, benchEngineMachine(b, EngineParallel))
}
