// Quickstart: build the simulated 8-way Power5 machine, run the synthetic
// scoreboard microbenchmark, attach the thread-clustering engine, and
// watch it find the sharing clusters and cut remote-access stalls.
package main

import (
	"context"
	"fmt"
	"log"

	"threadcluster/internal/core"
	"threadcluster/internal/experiments"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

func main() {
	// 1. The machine: 2 chips x 2 cores x 2 SMT contexts, Table 1 caches,
	//    Figure 1 latencies.
	// Round-robin placement is the paper's engineered worst case: it
	// scatters every sharing group across the chips, which is exactly
	// what the engine must detect and undo.
	mcfg := sim.DefaultConfig()
	mcfg.Policy = sched.PolicyRoundRobin
	machine, err := sim.NewMachine(mcfg)
	if err != nil {
		log.Fatal(err)
	}
	// Close hands the machine's cache slabs to the next NewMachine; read
	// every result first.
	defer machine.Close()
	fmt.Println("machine:", machine.Topology())

	// 2. The workload: 4 scoreboards, 4 threads each, every thread mixing
	//    a large private working set with reads/writes of its scoreboard.
	arena := memory.NewDefaultArena()
	spec, err := workloads.NewSynthetic(arena, workloads.DefaultSyntheticConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := spec.Install(machine); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s, %d threads over %d scoreboards\n\n",
		spec.Name, len(spec.Threads), spec.NumPartitions)

	// 3. Baseline interval: no engine yet.
	machine.RunRoundsCtx(context.Background(), 300)
	machine.ResetMetrics()
	machine.RunRoundsCtx(context.Background(), 300)
	before := machine.Breakdown()
	fmt.Printf("before clustering: remote-access stalls = %s of cycles, IPC = %.3f\n",
		stats.Pct(before.RemoteFraction()), 1/before.CPI())

	// 4. Attach the paper's engine: monitor -> detect -> cluster ->
	//    migrate, iteratively.
	engine, err := core.New(machine, experiments.ScaledEngineConfig(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Install(); err != nil {
		log.Fatal(err)
	}
	machine.RunRoundsCtx(context.Background(), 2600) // let it activate, sample, cluster, migrate

	// 5. Measure again.
	machine.ResetMetrics()
	machine.RunRoundsCtx(context.Background(), 300)
	after := machine.Breakdown()
	fmt.Printf("after  clustering: remote-access stalls = %s of cycles, IPC = %.3f\n",
		stats.Pct(after.RemoteFraction()), 1/after.CPI())
	fmt.Printf("\nengine: %d activation(s), %d migration(s), %d cluster(s) detected\n",
		engine.Activations(), engine.MigrationsDone(), len(engine.Clusters()))
	for i, c := range engine.Clusters() {
		if c.Size() < 2 {
			continue
		}
		fmt.Printf("  cluster %d: threads %v\n", i, c.Members)
	}
	reduction := 1 - stats.Ratio(float64(after.RemoteStalls()), float64(before.RemoteStalls()))
	fmt.Printf("\nremote-stall reduction: %s (the paper reports up to 70%%)\n", stats.Pct(reduction))
}
