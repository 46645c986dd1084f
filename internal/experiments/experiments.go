// Package experiments contains one harness per table and figure of the
// paper's evaluation (Section 6, plus the Section 7.4 scaling result and
// a Section 5.2.1 validation). Each harness describes what its study
// varies — workload, placement policy, engine configuration, hardware
// adjustments — and the rig (rig.go) builds the simulated machine, runs
// it and measures it; the harness returns the same rows/series the paper
// reports. The catalogue (catalogue.go) names every experiment once.
//
// The simulations are scaled relative to the paper's hardware runs — the
// monitoring window, sample target and run lengths are divided down so a
// full experiment takes seconds, not minutes — but every scaling constant
// is in one place (ScaledEngineConfig and DefaultOptions) and documented
// in EXPERIMENTS.md. What must be preserved is the *shape* of each result:
// who wins, roughly by how much, and where the trade-off knees fall.
package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/cache"
	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/metrics"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// Workload names accepted by the harnesses.
const (
	Microbenchmark = "microbenchmark"
	Volano         = "volano"
	JBB            = "specjbb"
	Rubis          = "rubis"
)

// ServerWorkloads lists the three commercial workloads of Figures 6 and 7.
func ServerWorkloads() []string { return []string{Volano, JBB, Rubis} }

// Options are the common knobs of an experiment run.
type Options struct {
	// Topo is the machine shape (default: the OpenPower 720).
	Topo topology.Topology
	// Seed drives every source of randomness.
	Seed int64
	// QuantumCycles is the scheduling quantum.
	QuantumCycles uint64
	// WarmRounds run before measurement to fill caches and settle
	// placement.
	WarmRounds int
	// EngineRounds run additionally (before measurement) when the
	// clustering engine is attached, giving it time to detect and migrate.
	EngineRounds int
	// MeasureRounds is the measured interval.
	MeasureRounds int
	// Coherence selects the cache-coherence implementation (zero value:
	// the directory fast path). Per-access results are differentially
	// tested to be identical; note that multi-chip directory machines
	// additionally run the deferred slice-barrier execution model, so
	// switching to broadcast can shift multi-chip numbers (it forces the
	// serial immediate-coherence loop).
	Coherence cache.CoherenceMode
}

// DefaultOptions returns the scaled defaults used by the CLI and benches.
func DefaultOptions() Options {
	return Options{
		Topo:          topology.OpenPower720(),
		Seed:          1,
		QuantumCycles: 20_000,
		WarmRounds:    200,
		EngineRounds:  2600,
		MeasureRounds: 400,
	}
}

// WithRounds returns o with every positive count replacing the matching
// run length; zero keeps the default. Every front end that takes
// -warm/-engine/-measure style overrides applies them through here.
func (o Options) WithRounds(warm, engine, measure int) Options {
	if warm > 0 {
		o.WarmRounds = warm
	}
	if engine > 0 {
		o.EngineRounds = engine
	}
	if measure > 0 {
		o.MeasureRounds = measure
	}
	return o
}

// ScaledEngineConfig returns the paper's engine parameters scaled to the
// simulation:
//
//   - the 20%-per-billion-cycles activation rule becomes 5% per 200k
//     cycles (our workloads' remote-stall share sits in the 5-20% band
//     the paper targets, and windows must fit the shortened runs);
//   - the one-million-sample target becomes 40k samples, and the
//     similarity threshold scales with it: the dot product grows
//     quadratically in per-thread sample counts, so 40000 at 10^6 samples
//     corresponds to a few hundred at 4*10^4 (see EXPERIMENTS.md);
//   - the temporal sampling interval drops from 10 to 5, which the paper
//     itself allows — N is adjusted online "taking into account the
//     frequency of remote cache accesses and the runtime overhead".
func ScaledEngineConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MonitorWindow = 200_000
	cfg.ActivationFraction = 0.05
	cfg.TargetSamples = 40_000
	cfg.SamplingInterval = 5
	cfg.Clustering.Threshold = 500
	cfg.Seed = seed
	return cfg
}

// ControlledEngineConfig is ScaledEngineConfig with the activation
// threshold effectively disabled, for harnesses that drive the detection
// phase explicitly via ForceDetection (Figures 5 and 8, the spatial and
// ablation studies). Without this, a workload sharing heavily enough to
// self-activate during warm-up would start detection at an uncontrolled
// time.
func ControlledEngineConfig(seed int64) core.Config {
	cfg := ScaledEngineConfig(seed)
	cfg.ActivationFraction = 10 // never self-activate
	return cfg
}

// workloadBuilders is the one name → constructor table; AllWorkloads,
// CheckWorkload and BuildWorkload all derive from it.
var workloadBuilders = []struct {
	name  string
	build func(arena *memory.Arena, seed int64) (*workloads.Spec, error)
}{
	{Microbenchmark, func(arena *memory.Arena, seed int64) (*workloads.Spec, error) {
		cfg := workloads.DefaultSyntheticConfig()
		cfg.Seed = seed
		return workloads.NewSynthetic(arena, cfg)
	}},
	{Volano, func(arena *memory.Arena, seed int64) (*workloads.Spec, error) {
		cfg := workloads.DefaultVolanoConfig()
		cfg.Seed = seed
		return workloads.NewVolano(arena, cfg)
	}},
	{JBB, func(arena *memory.Arena, seed int64) (*workloads.Spec, error) {
		cfg := workloads.DefaultJBBConfig()
		cfg.Seed = seed
		return workloads.NewJBB(arena, cfg)
	}},
	{Rubis, func(arena *memory.Arena, seed int64) (*workloads.Spec, error) {
		cfg := workloads.DefaultRubisConfig()
		cfg.Seed = seed
		return workloads.NewRubis(arena, cfg)
	}},
}

// AllWorkloads lists every buildable workload.
func AllWorkloads() []string {
	names := make([]string, len(workloadBuilders))
	for i, w := range workloadBuilders {
		names[i] = w.name
	}
	return names
}

// CheckWorkload reports whether name is a buildable workload, without
// building it.
func CheckWorkload(name string) error {
	for _, w := range workloadBuilders {
		if w.name == name {
			return nil
		}
	}
	return fmt.Errorf("experiments: unknown workload %q", name)
}

// BuildWorkload constructs a workload spec by name on a fresh arena.
func BuildWorkload(name string, seed int64) (*workloads.Spec, error) {
	for _, w := range workloadBuilders {
		if w.name == name {
			return w.build(memory.NewDefaultArena(), seed)
		}
	}
	return nil, CheckWorkload(name)
}

// RunMetrics is what one measured run yields.
type RunMetrics struct {
	Workload string
	Policy   sched.Policy
	// Breakdown is the machine-wide CPI stack over the measured interval.
	Breakdown pmu.Breakdown
	// RemoteStalls is the remote-access stall cycle count.
	RemoteStalls uint64
	// RemoteFraction is RemoteStalls / Cycles.
	RemoteFraction float64
	// Ops is application operations completed in the measured interval.
	Ops uint64
	// OpsPerMCycle is throughput normalized to a million machine cycles.
	OpsPerMCycle float64
	// Engine carries engine statistics when the engine was attached.
	Engine *EngineStats
	// Metrics is the machine's structured metrics delta over the measured
	// interval: per-source cache attribution, scheduler activity, the CPI
	// stack and (when attached) engine series.
	Metrics metrics.Snapshot
}

// EngineStats summarizes the clustering engine's work during a run.
type EngineStats struct {
	Activations     uint64
	Migrations      uint64
	Clusters        int
	SamplesRead     int
	SamplesAdmitted int
	DetectionCycles uint64
	OverheadCycles  uint64
}

// RunWorkload measures one workload under one policy, with the
// clustering engine attached under the clustered policy. The machine is
// closed before RunWorkload returns, so a grid of cells recycles one set
// of cache slabs per worker.
func RunWorkload(ctx context.Context, name string, policy sched.Policy, opt Options) (RunMetrics, error) {
	return runCell(ctx, workloadCell(name, policy, opt))
}

// workloadCell is one steady-state run of a named workload under a
// policy: a sweep-grid cell, a Figure 3 breakdown, a Figure 6/7 bar and
// the 8-way half of the scaling study all measure it, so under one
// RunExperiment call each such machine is simulated once.
func workloadCell(name string, policy sched.Policy, opt Options) cell[RunMetrics] {
	return cell[RunMetrics]{fmt.Sprintf("workload/%s/%s/engine=%v", name, policy, policy == sched.PolicyClustered), opt,
		policyStudy(policy, named(name)),
		func(ctx context.Context, r *rig) (RunMetrics, error) {
			res, err := steady(ctx, r)
			res.Workload = name
			return res, err
		}}
}

// workloadBuild is the workload a study builds: the named one or, when
// jbb is set, SPECjbb with jbb[0] warehouses of jbb[1] threads. String
// names what spec builds, so two cells that build different workloads
// cannot share a name.
type workloadBuild struct {
	name string
	jbb  [2]int
}

// named builds the named workload (BuildWorkload) for a study.
func named(name string) func(seed int64) (*workloads.Spec, error) {
	return workloadBuild{name: name}.spec
}

func (w workloadBuild) String() string {
	if w.jbb == [2]int{} {
		return w.name
	}
	return fmt.Sprintf("%s-%dx%d", JBB, w.jbb[0], w.jbb[1])
}

func (w workloadBuild) spec(seed int64) (*workloads.Spec, error) {
	if w.jbb == [2]int{} {
		return BuildWorkload(w.name, seed)
	}
	cfg := workloads.DefaultJBBConfig()
	cfg.Warehouses, cfg.ThreadsPerWarehouse = w.jbb[0], w.jbb[1]
	cfg.Seed = seed
	return workloads.NewJBB(memory.NewDefaultArena(), cfg)
}
