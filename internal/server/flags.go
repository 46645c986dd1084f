package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"threadcluster/internal/experiments"
)

// GridFlags is the command-line spelling of a JobSpec's grid, and the
// only flags -> spec mapping in the tree: `tcsim sweep`, `tcsim submit`
// and `tcfleet` bind it and pass the result to Normalize, so a flag
// means the same thing offline, served and sharded (seed 0 is seed 1,
// negative rounds are ErrBadConfig, empty modes are the defaults).
type GridFlags struct {
	file                       string
	workloads, policies, topos string
	spec                       JobSpec // the scalar flags bind straight to their fields
}

// BindGridFlags registers the grid flags on fs. Call Spec after
// fs.Parse.
func BindGridFlags(fs *flag.FlagSet) *GridFlags {
	g := &GridFlags{}
	fs.StringVar(&g.file, "spec", "", "JSON JobSpec file (overrides the grid flags; '-' = stdin)")
	fs.StringVar(&g.workloads, "workloads", "microbenchmark,volano,specjbb,rubis", "comma-separated workloads")
	fs.StringVar(&g.policies, "policies", "default,clustered",
		"comma-separated policies: default|round-robin|hand-optimized|clustered")
	fs.StringVar(&g.topos, "topos", experiments.TopoOpenPower720, "comma-separated topologies: open720|power5-32")
	fs.Int64Var(&g.spec.Seed, "seed", 1, "base seed; per-config seeds derive from it deterministically (0 means 1)")
	fs.IntVar(&g.spec.WarmRounds, "warm", 0, "override warm-up rounds (0 = default; negative is rejected)")
	fs.IntVar(&g.spec.EngineRounds, "engine", 0, "override engine rounds (0 = default; negative is rejected)")
	fs.IntVar(&g.spec.MeasureRounds, "measure", 0, "override measured rounds (0 = default; negative is rejected)")
	fs.StringVar(&g.spec.Coherence, "coherence", "", "cache-coherence implementation: directory|broadcast (empty = directory)")
	return g
}

// Spec returns the JobSpec the parsed flags describe: the -spec file's
// when one was named, the grid flags' otherwise. The spec is as
// written, not yet normalized.
func (g *GridFlags) Spec() (JobSpec, error) {
	if g.file == "" {
		spec := g.spec
		spec.Workloads = experiments.SplitList(g.workloads)
		spec.Policies = experiments.SplitList(g.policies)
		spec.Topos = experiments.SplitList(g.topos)
		return spec, nil
	}
	var data []byte
	var err error
	if g.file == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(g.file)
	}
	if err != nil {
		return JobSpec{}, fmt.Errorf("server: reading spec: %w", err)
	}
	var spec JobSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return JobSpec{}, fmt.Errorf("server: parsing spec %s: %w", g.file, err)
	}
	return spec, nil
}
