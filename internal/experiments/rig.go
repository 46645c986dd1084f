package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/clustering"
	"threadcluster/internal/core"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

// MachineConfig maps the Options onto the simulated machine they
// describe, scheduled under the given placement policy. It is the only
// Options → sim.Config mapping: every harness's machine comes out of it
// (through the rig below), and so does `tcsim snapshot`'s.
func MachineConfig(opt Options, policy sched.Policy) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Topo = opt.Topo
	cfg.Seed = opt.Seed
	cfg.QuantumCycles = opt.QuantumCycles
	cfg.Engine = opt.Engine
	cfg.Caches.Coherence = opt.Coherence
	cfg.Policy = policy
	return cfg
}

// study is what one machine run of an experiment may vary. Everything
// else — the Options mapping, the build → install → attach → setup
// order, and the warm → ResetMetrics → measure → read procedure —
// belongs to the rig, so a harness cannot forget an Options field or
// drift from its siblings.
type study struct {
	// policy is the placement policy the machine schedules under.
	policy sched.Policy
	// hardware optionally adjusts the modelled hardware: cache sizes,
	// latencies, the SMT penalty. Topology, seed, quantum, execution
	// engine and coherence mode are the Options' and are not its to set.
	hardware func(*sim.Config)
	// install puts the workload on the fresh machine.
	install func(*sim.Machine) error
	// engine, when set, yields the clustering engine's configuration for
	// the Options' seed (ScaledEngineConfig, controlledEngine(...), or an
	// adjusted copy of either); the rig attaches the engine right after
	// the workload.
	engine func(seed int64) core.Config
	// setup optionally runs last, once the engine (if any) is attached:
	// manual placement, PMU programming, tick drivers.
	setup func(*rig) error
}

// rig is one built machine with its workload installed and, when the
// study asked for one, its clustering engine attached. The rig owns the
// machine's lifecycle: whoever holds it closes it once every result has
// been read.
type rig struct {
	m   *sim.Machine
	eng *core.Engine
}

// close hands the machine's cache slabs to the next machine built (see
// sim.Machine.Close); r.m and r.eng must not be read afterwards.
func (r *rig) close() { r.m.Close() }

// machineBuilt, when set by a test, observes every machine the rig
// builds.
var machineBuilt func(*sim.Machine)

// build is the one place a harness machine comes from.
func (s study) build(opt Options) (*rig, error) {
	cfg := MachineConfig(opt, s.policy)
	if s.hardware != nil {
		s.hardware(&cfg)
		cfg.Caches.Coherence = opt.Coherence // survives a wholesale Caches swap
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	if machineBuilt != nil {
		machineBuilt(m)
	}
	r := &rig{m: m}
	if err := s.attach(r, opt); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// attach installs the workload, the clustering engine the study asked
// for, and the study's setup on the freshly built machine, in that order.
func (s study) attach(r *rig, opt Options) error {
	if err := s.install(r.m); err != nil {
		return err
	}
	if s.engine != nil {
		var err error
		if r.eng, err = core.New(r.m, s.engine(opt.Seed)); err != nil {
			return err
		}
		if err := r.eng.Install(); err != nil {
			return err
		}
	}
	if s.setup != nil {
		return s.setup(r)
	}
	return nil
}

// run builds the study's machine, warms it, discards the warm-up
// transients and measures the given number of rounds.
func (s study) run(ctx context.Context, opt Options, warm, measure int) (RunMetrics, *rig, error) {
	return s.runInterval(ctx, opt, warm, func(r *rig) error {
		return r.m.RunRoundsCtx(ctx, measure)
	})
}

// runInterval is run with a caller-driven measured interval (a forced
// detection, a detector's observation window) in place of a fixed round
// count.
func (s study) runInterval(ctx context.Context, opt Options, warm int, interval func(*rig) error) (RunMetrics, *rig, error) {
	r, err := s.build(opt)
	if err != nil {
		return RunMetrics{}, nil, err
	}
	if err := r.m.RunRoundsCtx(ctx, warm); err != nil {
		r.close()
		return RunMetrics{}, nil, err
	}
	r.m.ResetMetrics()
	base := r.m.SnapshotMetrics()
	if err := interval(r); err != nil {
		r.close()
		return RunMetrics{}, nil, err
	}

	b := r.m.Breakdown()
	res := RunMetrics{
		Policy:         s.policy,
		Breakdown:      b,
		RemoteStalls:   b.RemoteStalls(),
		RemoteFraction: b.RemoteFraction(),
		Ops:            r.m.TotalOps(),
	}
	if b.Cycles > 0 {
		res.OpsPerMCycle = float64(res.Ops) / (float64(b.Cycles) / 1e6)
	}
	res.Metrics = r.m.SnapshotMetrics().Delta(base)
	if r.eng != nil {
		res.Engine = &EngineStats{
			Activations:     r.eng.Activations(),
			Migrations:      r.eng.MigrationsDone(),
			Clusters:        len(r.eng.Clusters()),
			SamplesRead:     r.eng.SamplesRead(),
			SamplesAdmitted: r.eng.SamplesAdmitted(),
			DetectionCycles: r.eng.LastDetectionCycles(),
			OverheadCycles:  r.m.OverheadCycles(),
		}
	}
	return res, r, nil
}

// controlledEngine is the engine configuration of the harnesses that
// drive the detection phase themselves (see ControlledEngineConfig),
// optionally adjusted.
func controlledEngine(adjust func(*core.Config)) func(seed int64) core.Config {
	return func(seed int64) core.Config {
		cfg := ControlledEngineConfig(seed)
		if adjust != nil {
			adjust(&cfg)
		}
		return cfg
	}
}

// detectionSnapshot is the state of one completed detection phase,
// captured at clustering time (before the engine resets anything for a
// later re-activation).
type detectionSnapshot struct {
	clusters []clustering.Cluster
	shmaps   map[clustering.ThreadKey]*clustering.ShMap
}

// detect forces the engine into a fresh detection phase and runs the
// machine until that detection completes, returning a snapshot of the
// resulting clusters and shMaps. Using the OnClusters hook (fired at
// clustering time) avoids racing with a subsequent re-activation that
// would reset the shMaps.
func (r *rig) detect(ctx context.Context, maxRounds int) (*detectionSnapshot, error) {
	var snap *detectionSnapshot
	r.eng.OnClusters(func(clusters []clustering.Cluster) {
		if snap != nil {
			return // keep the first (forced) detection's result
		}
		s := &detectionSnapshot{
			clusters: append([]clustering.Cluster{}, clusters...),
			shmaps:   make(map[clustering.ThreadKey]*clustering.ShMap, len(r.eng.ShMaps())),
		}
		for k, v := range r.eng.ShMaps() {
			s.shmaps[k] = v.Clone()
		}
		snap = s
	})
	r.eng.ForceDetection()
	for n := 0; n < maxRounds && snap == nil; n += 20 {
		if err := r.m.RunRoundsCtx(ctx, 20); err != nil {
			return nil, err
		}
	}
	if snap == nil {
		return nil, fmt.Errorf("experiments: detection did not complete within %d rounds", maxRounds)
	}
	return snap, nil
}
