// Warehouse: the SPECjbb2000 scenario of Section 5.3.3. Warehouses are
// stored as B-trees in the simulated address space; a fixed set of
// threads runs transactions against each warehouse. This example shows
// the B-tree substrate, the stall breakdown that triggers the engine, and
// the engine's detected warehouse clusters.
package main

import (
	"context"
	"fmt"
	"log"

	"threadcluster/internal/core"
	"threadcluster/internal/experiments"
	"threadcluster/internal/memory"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

func main() {
	// Show the substrate first: a real B-tree over simulated memory.
	arena := memory.NewDefaultArena()
	tree, err := workloads.NewBTree(arena)
	if err != nil {
		log.Fatal(err)
	}
	var trace []memory.Addr // Insert and Lookup append to the buffer they are given
	for k := uint64(1); k <= 3000; k++ {
		if trace, err = tree.Insert(trace[:0], k*7919%100003); err != nil {
			log.Fatal(err)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	trace, _ = tree.Lookup(trace[:0], 4242)
	fmt.Printf("warehouse B-tree: %d keys, %d nodes, height %d; one lookup touches %d lines\n\n",
		tree.Size(), tree.Nodes(), tree.Height(), len(trace))

	// Now the full scenario: 2 warehouses x 8 threads under the engine.
	spec, err := experiments.BuildWorkload(experiments.JBB, 1)
	if err != nil {
		log.Fatal(err)
	}
	mcfg := sim.DefaultConfig()
	mcfg.Policy = sched.PolicyClustered
	machine, err := sim.NewMachine(mcfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := spec.Install(machine); err != nil {
		log.Fatal(err)
	}
	engine, err := core.New(machine, experiments.ScaledEngineConfig(1))
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Install(); err != nil {
		log.Fatal(err)
	}

	machine.RunRoundsCtx(context.Background(), 200)
	machine.ResetMetrics()
	machine.RunRoundsCtx(context.Background(), 300)
	before := machine.Breakdown()
	fmt.Println("stall breakdown before clustering (the Figure 3 view):")
	fmt.Printf("  completion %s, dcache-remote %s, dcache-local %s, memory %s\n\n",
		stats.Pct(stats.Ratio(float64(before.Completion), float64(before.Cycles))),
		stats.Pct(before.RemoteFraction()),
		stats.Pct(before.Fraction(pmu.EvStallL2)+before.Fraction(pmu.EvStallL3)),
		stats.Pct(before.Fraction(pmu.EvStallMemory)))

	machine.RunRoundsCtx(context.Background(), 2600)
	machine.ResetMetrics()
	machine.RunRoundsCtx(context.Background(), 300)
	after := machine.Breakdown()

	fmt.Printf("engine detected %d cluster(s) after %d activation(s):\n",
		len(engine.Clusters()), engine.Activations())
	truth := spec.Truth()
	for i, c := range engine.Clusters() {
		if c.Size() < 2 {
			continue
		}
		warehouses := map[int]int{}
		for _, t := range c.Members {
			warehouses[truth[int(t)]]++
		}
		fmt.Printf("  cluster %d: %d threads, warehouse histogram %v\n", i, c.Size(), warehouses)
	}
	fmt.Printf("\nremote stalls: %s -> %s of cycles\n",
		stats.Pct(before.RemoteFraction()), stats.Pct(after.RemoteFraction()))
}
