// Chatserver: the VolanoMark scenario of Section 5.3.2. An instant
// messaging server runs two designated threads per client connection;
// connections belong to chat rooms; threads of a room share the room's
// message board intensively. This example compares all four thread
// placement strategies of Section 5.4 on that workload and shows what the
// automatic engine detected.
package main

import (
	"context"
	"fmt"
	"log"

	"threadcluster/internal/experiments"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
)

func main() {
	opt := experiments.DefaultOptions()

	fmt.Println("VolanoMark-like chat server: 2 rooms x 8 connections x 2 threads = 32 threads")
	fmt.Println()

	table := stats.NewTable("Placement strategy comparison",
		"Policy", "Remote stalls (% of cycles)", "Throughput (msgs/Mcycle)")
	var def experiments.RunMetrics
	for _, pol := range []sched.Policy{
		sched.PolicyDefault, sched.PolicyRoundRobin,
		sched.PolicyHandOptimized, sched.PolicyClustered,
	} {
		res, err := experiments.RunWorkload(context.Background(), experiments.Volano, pol, pol == sched.PolicyClustered, opt)
		if err != nil {
			log.Fatal(err)
		}
		if pol == sched.PolicyDefault {
			def = res
		}
		table.AddRow(pol.String(), stats.Pct(res.RemoteFraction), fmt.Sprintf("%.1f", res.OpsPerMCycle))
		if res.Engine != nil {
			defer func(e experiments.EngineStats) {
				fmt.Printf("engine: %d activations, %d migrations, %d clusters, %d/%d samples admitted\n",
					e.Activations, e.Migrations, e.Clusters, e.SamplesAdmitted, e.SamplesRead)
			}(*res.Engine)
		}
	}
	fmt.Println(table)
	fmt.Printf("default-policy remote share: %s — the cross-chip traffic the paper's Figure 3 shows\n\n",
		stats.Pct(def.RemoteFraction))
}
