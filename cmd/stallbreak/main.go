// Command stallbreak prints the Figure 3 CPI stall breakdown for one
// workload under a chosen placement policy — the view the paper's
// monitoring phase uses to decide whether cross-chip communication is
// performance-limiting.
//
// Usage:
//
//	stallbreak -workload volano -policy default
//	stallbreak -workload specjbb -policy round-robin -rounds 500
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"threadcluster/internal/experiments"
	"threadcluster/internal/sched"
)

func main() {
	var (
		workload = flag.String("workload", experiments.Volano, "microbenchmark|volano|specjbb|rubis")
		policy   = flag.String("policy", "default", "default|round-robin|hand-optimized|clustered")
		seed     = flag.Int64("seed", 1, "simulation seed")
		rounds   = flag.Int("rounds", 0, "override measured rounds (0 = default)")
	)
	flag.Parse()

	pol, err := experiments.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stallbreak:", err)
		os.Exit(1)
	}
	opt := experiments.DefaultOptions().WithRounds(0, 0, *rounds)
	opt.Seed = *seed
	withEngine := pol == sched.PolicyClustered
	res, err := experiments.RunWorkload(context.Background(), *workload, pol, withEngine, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stallbreak:", err)
		os.Exit(1)
	}
	b := res.Breakdown
	t := experiments.StallTable(
		fmt.Sprintf("Stall breakdown: %s under %s scheduling (CPI %.3f)", *workload, pol, b.CPI()), b)
	fmt.Println(t)
	fmt.Printf("throughput: %.1f ops per million cycles (%d ops)\n", res.OpsPerMCycle, res.Ops)
	if res.Engine != nil {
		fmt.Printf("engine: %d activations, %d migrations, %d clusters\n",
			res.Engine.Activations, res.Engine.Migrations, res.Engine.Clusters)
	}
}
