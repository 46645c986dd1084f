package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/cache"
	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// NUMARow is one configuration of the Section 8 NUMA extension study.
type NUMARow struct {
	Config string
	// RemoteCacheFraction is remote-cache-access stalls / cycles.
	RemoteCacheFraction float64
	// RemoteMemoryFraction is remote-memory stalls / cycles.
	RemoteMemoryFraction float64
	// OpsPerMCycle is throughput.
	OpsPerMCycle float64
}

// NUMAResult carries the study's rows in comparison order.
type NUMAResult struct {
	Default    NUMARow // default Linux placement, no engine
	Clustered  NUMARow // engine on, NUMA-blind (base paper scheme)
	NUMAEngine NUMARow // engine on, Section 8 NUMA extension
}

// numaTopo is the machine for the study: four chips so a NUMA-blind
// cluster placement is right only a quarter of the time, making the
// data-affinity effect visible above placement luck.
func numaTopo() topology.Topology {
	return topology.Topology{Chips: 4, CoresPerChip: 2, ContextsPerCore: 2}
}

// numaStripe is the address stripe per node; each warehouse's arena fits
// comfortably inside one stripe.
const numaStripe = 1 << 32

// NUMA runs the Section 8 extension study: a four-chip machine whose
// memory controllers are per-chip, a SPECjbb configuration with one
// warehouse group per node (node-bound allocation), and working sets
// sized past the caches so memory fills matter. Compared are default
// placement, the base (NUMA-blind) clustering engine, and the engine
// with the Section 8 extension (remote-memory sampling + data-affinity
// aware cluster placement).
func NUMA(ctx context.Context, opt Options) (NUMAResult, *stats.Table, error) {
	var res NUMAResult
	var err error
	if res.Default, err = numaRun(ctx, opt, sched.PolicyDefault, false, false); err != nil {
		return res, nil, err
	}
	if res.Clustered, err = numaRun(ctx, opt, sched.PolicyClustered, true, false); err != nil {
		return res, nil, err
	}
	if res.NUMAEngine, err = numaRun(ctx, opt, sched.PolicyClustered, true, true); err != nil {
		return res, nil, err
	}

	t := stats.NewTable("Section 8 extension: thread clustering on a 4-node NUMA machine (SPECjbb)",
		"Configuration", "Remote-cache stalls", "Remote-memory stalls", "Throughput (ops/Mcycle)")
	for _, row := range []NUMARow{res.Default, res.Clustered, res.NUMAEngine} {
		t.AddRow(row.Config,
			stats.Pct(row.RemoteCacheFraction),
			stats.Pct(row.RemoteMemoryFraction),
			fmt.Sprintf("%.1f", row.OpsPerMCycle))
	}
	return res, t, nil
}

func numaRun(ctx context.Context, opt Options, policy sched.Policy, withEngine, numaEngine bool) (NUMARow, error) {
	topo := numaTopo()
	nodes := memory.StripedNodes{N: topo.Chips, Stripe: numaStripe}
	arenas, err := memory.NodeArenas(nodes)
	if err != nil {
		return NUMARow{}, err
	}

	wcfg := workloads.DefaultJBBConfig()
	wcfg.Warehouses = topo.Chips
	wcfg.ThreadsPerWarehouse = 4
	wcfg.InitialKeys = 12_000 // ~0.9MB of tree per warehouse: larger than the shrunk caches below
	wcfg.Seed = opt.Seed
	// Reverse the warehouse-to-node mapping (warehouse i lives on node
	// Chips-1-i). A NUMA-blind engine places equal-sized clusters on
	// chips in discovery order, which without this shuffle would line up
	// with the nodes by accident of symmetric numbering; reversing the
	// homes makes data affinity something only the NUMA-aware placement
	// can get right.
	homes := make([]*memory.Arena, len(arenas))
	for i := range arenas {
		homes[i] = arenas[len(arenas)-1-i]
	}
	spec, err := workloads.NewJBBOnNodes(homes, wcfg)
	if err != nil {
		return NUMARow{}, err
	}

	numaOpt := opt
	numaOpt.Topo = topo
	st := study{
		policy: policy,
		hardware: func(cfg *sim.Config) {
			cfg.Lat = topology.NUMALatencies()
			// Shrink the caches so steady-state capacity misses reach
			// memory and the memory's home node matters.
			cfg.Caches = cache.HierarchyConfig{
				L1: cache.Config{SizeBytes: 32 << 10, Ways: 4},
				L2: cache.Config{SizeBytes: 256 << 10, Ways: 8},
				L3: cache.Config{SizeBytes: 512 << 10, Ways: 8},
			}
		},
		install: func(m *sim.Machine) error {
			m.Hierarchy().SetNUMA(nodes)
			return spec.Install(m)
		},
	}
	name := "default"
	if withEngine {
		name = "clustered (NUMA-blind)"
		st.engine = ScaledEngineConfig
		if numaEngine {
			name = "clustered+numa (Section 8)"
			st.engine = func(seed int64) core.Config {
				ecfg := ScaledEngineConfig(seed)
				ecfg.NUMA = true
				ecfg.NodeOf = func(a memory.Addr) int { return nodes.NodeOf(a) }
				return ecfg
			}
		}
	}

	res, r, err := st.run(ctx, numaOpt, opt.WarmRounds+opt.EngineRounds, opt.MeasureRounds)
	if err != nil {
		return NUMARow{}, err
	}
	r.close()
	return NUMARow{
		Config:               name,
		RemoteCacheFraction:  res.RemoteFraction,
		RemoteMemoryFraction: res.Breakdown.RemoteMemoryFraction(),
		OpsPerMCycle:         res.OpsPerMCycle,
	}, nil
}
