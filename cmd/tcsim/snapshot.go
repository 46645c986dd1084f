package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"threadcluster/internal/cache"
	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
	"threadcluster/internal/sim"
)

// runSnapshot implements the `tcsim snapshot` subcommand: run one
// configuration for -rounds and persist the machine's complete state as
// a versioned snapshot, or restore a snapshot with -resume and continue
// it. The snapshot encoding is canonical — its digest (printed on
// stdout) is stable across GOMAXPROCS — so splitting a run at any
// quiescent point changes nothing:
//
//	tcsim snapshot -rounds 400 -out full.snap
//	tcsim snapshot -rounds 250 -out half.snap
//	tcsim snapshot -resume half.snap -rounds 150 -out resumed.snap
//	cmp full.snap resumed.snap   # byte-identical
//
// The build flags (-workload, -policy, -topo, -seed, -coherence) must
// match between the snapshotting run and the resuming run: generators
// and PMU programming are rebuilt from them, then validated against the
// snapshot during restore; a resume under another -seed is refused with
// a bad-configuration error. Only workloads with confined generators
// (microbenchmark, volano) can snapshot; specjbb and rubis touch shared
// scoreboards mid-quantum and are rejected with a bad-configuration
// error.
func runSnapshot(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", experiments.Microbenchmark,
			"workload: microbenchmark|volano (confined generators only)")
		policyFlag = fs.String("policy", "default",
			"placement policy: default|round-robin|hand-optimized|clustered (clustered attaches the engine)")
		topoFlag  = fs.String("topo", experiments.TopoOpenPower720, "topology: open720|power5-32")
		seed      = fs.Int64("seed", 1, "simulation seed; must match the snapshot when resuming (a mismatch is refused)")
		rounds    = fs.Int("rounds", 200, "scheduling rounds to run before snapshotting")
		out       = fs.String("out", "", "write the machine snapshot to this file")
		resume    = fs.String("resume", "", "restore the machine from this snapshot file, then run -rounds more")
		coherence = fs.String("coherence", "directory", "cache-coherence implementation: directory|broadcast")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rounds < 0 {
		return fmt.Errorf("snapshot: negative -rounds")
	}

	policy, err := experiments.ParsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	topo, err := experiments.ParseTopo(*topoFlag)
	if err != nil {
		return err
	}
	mode, err := cache.ParseCoherenceMode(*coherence)
	if err != nil {
		return err
	}

	opt := experiments.DefaultOptions()
	opt.Topo = topo
	opt.Seed = *seed
	opt.Coherence = mode

	// A resumed machine is rebuilt from the flags, then the snapshot's
	// state is laid over it: the generator closures, PMU programming and
	// the clustering engine's handlers are what a snapshot cannot carry.
	var from *sim.MachineSnapshot
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err != nil {
			return fmt.Errorf("snapshot: reading %s: %w", *resume, err)
		}
		if from, err = sim.DecodeSnapshot(data); err != nil {
			return fmt.Errorf("snapshot: decoding %s: %w", *resume, err)
		}
	}
	ctx := context.Background()
	m, err := experiments.WorkloadMachine(ctx, *workload, policy, opt, from, *rounds)
	if err != nil {
		if from != nil {
			return fmt.Errorf("snapshot: restoring %s: %w", *resume, err)
		}
		return err
	}
	defer m.Close()
	snap, err := m.Snapshot(ctx)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := server.WriteFileAtomic(*out, snap.Encode()); err != nil {
			return fmt.Errorf("snapshot: writing %s: %w", *out, err)
		}
	}
	fmt.Fprintln(stdout, snap.Digest())
	b := m.Breakdown()
	fmt.Fprintf(stderr, "snapshot: %s/%s/%s seed %d: +%d rounds, %d cycles, %d insts, %d ops\n",
		*workload, policy, *topoFlag, *seed, *rounds, b.Cycles, b.Insts, m.TotalOps())
	return nil
}
