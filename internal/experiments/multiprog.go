package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

// multiprogOffset separates the second process's thread ids.
const multiprogOffset = 1000

// MultiprogResult is the multiprogrammed-environment study's outcome:
// two independent server processes (a VolanoMark chat server and a
// SPECjbb application server) time-share one machine — the "dynamic
// nature of multiprogrammed computing environments" the paper's
// introduction says manual clustering cannot handle.
type MultiprogResult struct {
	// DefaultRemoteFraction / ClusteredRemoteFraction are machine-wide.
	DefaultRemoteFraction   float64
	ClusteredRemoteFraction float64
	// Per-process throughput (ops in the measured interval).
	DefaultOps   [2]uint64
	ClusteredOps [2]uint64
	// CrossProcessClusters counts detected clusters containing threads of
	// both processes — must be zero (threads of different processes never
	// share memory).
	CrossProcessClusters int
	// Clusters is the engine's final cluster count.
	Clusters int
}

// Multiprogrammed runs the two-process study under default placement and
// under the engine with per-process shMap filters.
func Multiprogrammed(ctx context.Context, opt Options) (MultiprogResult, *stats.Table, error) {
	var res MultiprogResult

	run := func(policy sched.Policy) (float64, [2]uint64, *core.Engine, error) {
		specs, err := buildMultiprog(opt)
		if err != nil {
			return 0, [2]uint64{}, nil, err
		}
		st := study{
			policy: policy,
			install: func(m *sim.Machine) error {
				for _, spec := range specs {
					if err := spec.Install(m); err != nil {
						return err
					}
				}
				return nil
			},
		}
		if policy == sched.PolicyClustered {
			st.engine = func(seed int64) core.Config {
				ecfg := ScaledEngineConfig(seed)
				ecfg.ProcessOf = processOf
				return ecfg
			}
		}
		measured, r, err := st.run(ctx, opt, opt.WarmRounds+opt.EngineRounds, opt.MeasureRounds)
		if err != nil {
			return 0, [2]uint64{}, nil, err
		}
		var ops [2]uint64
		for _, spec := range specs {
			for _, th := range spec.Threads {
				ops[processOf(th.ID)] += th.Ops
			}
		}
		return measured.RemoteFraction, ops, r.eng, nil
	}

	var err error
	if res.DefaultRemoteFraction, res.DefaultOps, _, err = run(sched.PolicyDefault); err != nil {
		return res, nil, err
	}
	var eng *core.Engine
	if res.ClusteredRemoteFraction, res.ClusteredOps, eng, err = run(sched.PolicyClustered); err != nil {
		return res, nil, err
	}
	res.Clusters = len(eng.Clusters())
	for _, c := range eng.Clusters() {
		procs := map[int]bool{}
		for _, tk := range c.Members {
			procs[processOf(sched.ThreadID(tk))] = true
		}
		if len(procs) > 1 {
			res.CrossProcessClusters++
		}
	}

	t := stats.NewTable("Multiprogrammed study: VolanoMark + SPECjbb sharing one machine",
		"Configuration", "Remote stalls", "volano ops", "specjbb ops")
	t.AddRow("default", stats.Pct(res.DefaultRemoteFraction),
		fmt.Sprintf("%d", res.DefaultOps[0]), fmt.Sprintf("%d", res.DefaultOps[1]))
	t.AddRow("clustered", stats.Pct(res.ClusteredRemoteFraction),
		fmt.Sprintf("%d", res.ClusteredOps[0]), fmt.Sprintf("%d", res.ClusteredOps[1]))
	t.AddRow("cross-process clusters", fmt.Sprintf("%d", res.CrossProcessClusters), "-", "-")
	return res, t, nil
}

// processOf maps a thread to its process: the second process's ids
// start at multiprogOffset.
func processOf(id sched.ThreadID) int {
	if int(id) >= multiprogOffset {
		return 1
	}
	return 0
}

// buildMultiprog builds the two processes' workloads.
func buildMultiprog(opt Options) ([]*workloads.Spec, error) {
	// One arena for both processes: the arena is the machine's physical
	// address space, and the caches are physically indexed. Two specs on
	// one machine must therefore carve disjoint ranges out of the same
	// arena — two separate arenas would alias the same lines.
	arena := memory.NewDefaultArena()
	vcfg := workloads.DefaultVolanoConfig()
	vcfg.ClientsPerRoom = 4 // 16 threads, leave room for the second process
	vcfg.Seed = opt.Seed
	volano, err := workloads.NewVolano(arena, vcfg)
	if err != nil {
		return nil, err
	}
	jcfg := workloads.DefaultJBBConfig()
	jcfg.Seed = opt.Seed + 1
	jbb, err := workloads.NewJBB(arena, jcfg)
	if err != nil {
		return nil, err
	}
	jbb.Renumber(multiprogOffset)
	return []*workloads.Spec{volano, jbb}, nil
}
