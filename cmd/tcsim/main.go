// Command tcsim runs the paper's experiments on the simulated
// SMP-CMP-SMT machine and prints the tables, figures and sweeps of the
// evaluation section.
//
// Usage:
//
//	tcsim -exp all                 # everything (several minutes)
//	tcsim -exp fig6                # one experiment
//	tcsim -exp fig3 -workload rubis
//	tcsim -exp fig5 -seed 7
//
// The experiment catalogue — the paper's tables and figures, then the
// extension studies — lives in internal/experiments; `tcsim -h` lists
// it. Use -exp all for everything and -markdown for GitHub-flavored
// tables. The -coherence and -engine flags reach every experiment's
// machine. The -cluster flag swaps the engine's per-detection batch
// pass for the incremental clusterer (dense vectors or fixed-size
// sketches); results are differentially tested to match batch.
//
// The sweep subcommand fans a configuration grid (policy x topology x
// workload) across a worker pool and emits a metrics table:
//
//	tcsim sweep                               # 4 workloads x 2 policies
//	tcsim sweep -policies default,clustered -workers 4
//	tcsim sweep -format json -merged          # machine-wide snapshot
//	tcsim sweep -digest                       # canonical payload digest only
//
// Per-configuration results are byte-identical for any -workers value.
//
// The submit subcommand runs the same grid on a tcsimd job server and
// prints the canonical result payload, byte-identical to the offline
// sweep of the same spec (compare with `tcsim sweep -digest`):
//
//	tcsim submit -addr http://127.0.0.1:8321 -policies default,clustered
//	tcsim submit -spec job.json -events       # stream NDJSON progress
//
// The snapshot subcommand persists a machine's complete state after N
// rounds and resumes it later; split runs produce byte-identical
// snapshots to unbroken ones:
//
//	tcsim snapshot -rounds 250 -out half.snap
//	tcsim snapshot -resume half.snap -rounds 150 -out full.snap
//
// The bench-sweep subcommand runs the saturation sweep: a grid of
// machine shapes (chips x cores-per-chip, 2 SMT contexts) and coherence
// intensities, each cell timed under the sequential and the chip-parallel
// engine, with knee points (where parallel speedup or coherence cost
// saturates) extracted by internal/satbench:
//
//	tcsim bench-sweep                          # 4x2x3 grid, table output
//	tcsim bench-sweep -chips 1,2 -rounds 10 -format json
//	tcsim bench-sweep -record BENCH_sim.json   # refresh the "sweep" key
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"threadcluster/internal/cache"
	"threadcluster/internal/experiments"
	"threadcluster/internal/sim"
)

// subcommands are the non-experiment entry points, by first argument.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"sweep":       runSweep,
	"submit":      runSubmit,
	"snapshot":    runSnapshot,
	"bench-sweep": runBenchSweep,
}

func main() {
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			if err := sub(os.Args[2:], os.Stdout, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "tcsim:", err)
				os.Exit(1)
			}
			return
		}
	}
	var (
		exp       = flag.String("exp", "all", "experiment to run: "+strings.Join(experiments.ExperimentNames(), "|")+"|all")
		workload  = flag.String("workload", experiments.Volano, "workload for fig3: microbenchmark|volano|specjbb|rubis")
		seed      = flag.Int64("seed", 1, "simulation seed")
		warm      = flag.Int("warm", 0, "override warm-up rounds (0 = default)")
		measure   = flag.Int("measure", 0, "override measured rounds (0 = default)")
		markdown  = flag.Bool("markdown", false, "emit tables as GitHub-flavored Markdown")
		coherence = flag.String("coherence", "directory", "cache-coherence implementation of every experiment's machine: directory|broadcast")
		engine    = flag.String("engine", "parallel", "execution engine for eligible multi-chip rounds: seq|parallel (results are byte-identical)")
		cluster   = flag.String("cluster", "batch", "clustering path: batch (from-scratch per detection)|dense|sketch (incremental)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	opt := experiments.DefaultOptions().WithRounds(*warm, 0, *measure)
	opt.Seed = *seed
	mode, err := cache.ParseCoherenceMode(*coherence)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcsim:", err)
		os.Exit(2)
	}
	opt.Coherence = mode
	eng, err := sim.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcsim:", err)
		os.Exit(2)
	}
	opt.Engine = eng
	if *cluster != "batch" {
		opt.ClusterMode = *cluster
		if _, err := experiments.EngineConfigFor(opt); err != nil {
			fmt.Fprintln(os.Stderr, "tcsim:", err)
			os.Exit(2)
		}
	}

	stopCPU, err := startCPUProfile(*cpuprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runErr := experiments.RunExperiment(context.Background(), os.Stdout, *exp, *workload, opt, *markdown)
	stopCPU()
	if err := writeMemProfile(*memprof); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "tcsim:", runErr)
		os.Exit(1)
	}
}
