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
// tables. The -coherence flag reaches every experiment's machine.
//
// The sweep subcommand fans a configuration grid (policy x topology x
// workload) across a worker pool and emits a metrics table or the
// canonical result payload:
//
//	tcsim sweep                               # 4 workloads x 2 policies
//	tcsim sweep -policies default,clustered -workers 4
//	tcsim sweep -format json                  # the payload, one compact line
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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"threadcluster/internal/cache"
	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
)

// subcommands are the non-experiment entry points, by first argument.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) error{
	"sweep":    runSweep,
	"submit":   runSubmit,
	"snapshot": runSnapshot,
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
	os.Exit(runExperiments(os.Args[1:], os.Stdout, os.Stderr))
}

// runExperiments implements the -exp entry point and returns the exit
// status: 2 for a bad flag or flag value, 1 for a failed experiment.
// Every flag is checked before the CPU profile starts, so a rejected
// command line leaves no file behind.
func runExperiments(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "experiment to run: "+strings.Join(experiments.ExperimentNames(), "|")+"|all")
		workload  = fs.String("workload", experiments.Volano, "workload for fig3: microbenchmark|volano|specjbb|rubis")
		seed      = fs.Int64("seed", 1, "simulation seed")
		warm      = fs.Int("warm", 0, "override warm-up rounds (0 = default)")
		measure   = fs.Int("measure", 0, "override measured rounds (0 = default)")
		markdown  = fs.Bool("markdown", false, "emit tables as GitHub-flavored Markdown")
		coherence = fs.String("coherence", "directory", "cache-coherence implementation of every experiment's machine: directory|broadcast")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *warm < 0 || *measure < 0 {
		fmt.Fprintf(stderr, "tcsim: %v: negative round count (-warm %d, -measure %d)\n", errs.ErrBadConfig, *warm, *measure)
		return 2
	}
	opt := experiments.DefaultOptions().WithRounds(*warm, 0, *measure)
	opt.Seed = *seed
	mode, err := cache.ParseCoherenceMode(*coherence)
	if err != nil {
		fmt.Fprintln(stderr, "tcsim:", err)
		return 2
	}
	opt.Coherence = mode
	if names := experiments.ExperimentNames(); *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(stderr, "tcsim: unknown experiment %q (have %s, all)\n", *exp, strings.Join(names, ", "))
		return 2
	}

	stopCPU, err := startCPUProfile(*cpuprof)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	runErr := experiments.RunExperiment(context.Background(), stdout, *exp, *workload, opt, *markdown)
	stopCPU()
	if err := writeMemProfile(*memprof); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "tcsim:", runErr)
		return 1
	}
	return 0
}
