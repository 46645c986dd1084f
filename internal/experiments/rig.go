package experiments

import (
	"context"
	"errors"
	"fmt"

	"threadcluster/internal/clustering"
	"threadcluster/internal/core"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/sweep"
	"threadcluster/internal/workloads"
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
	cfg.Caches.Coherence = opt.Coherence
	cfg.Policy = policy
	return cfg
}

// policyStudy is the study of a workload under a placement policy: the
// clustered policy attaches the clustering engine at its scaled
// configuration, and every other policy runs the workload alone.
func policyStudy(policy sched.Policy, workload func(seed int64) (*workloads.Spec, error)) study {
	s := study{policy: policy, workload: workload}
	if policy == sched.PolicyClustered {
		s.engine = ScaledEngineConfig
	}
	return s
}

// study is the machine a cell measures. Everything else — the Options
// mapping, the build → install → attach → setup order, the warm →
// ResetMetrics → measure → read procedure and the machine's close —
// belongs to the rig and its executor, so a harness cannot forget an
// Options field or drift from its siblings.
type study struct {
	// policy is the placement policy the machine schedules under.
	policy sched.Policy
	// hardware optionally adjusts the modelled hardware: cache sizes,
	// latencies, the SMT penalty. Topology, seed, quantum and coherence
	// mode are the Options' and are not its to set.
	hardware func(*sim.Config)
	// workload, when set, builds the workload for the Options' seed before
	// the machine is built; the rig keeps it as spec.
	workload func(seed int64) (*workloads.Spec, error)
	// install puts the workload on the fresh machine (default: installs
	// spec).
	install func(*rig) error
	// engine, when set, yields the configuration of the clustering engine
	// attached after the workload, for the Options' seed.
	engine func(seed int64) core.Config
	// setup optionally runs last, once the engine (if any) is attached:
	// manual placement, PMU programming, tick drivers.
	setup func(*rig) error
}

// cell is one machine run of an experiment: the name of what it
// computes, the Options it runs under, the study the executor builds,
// and run, which drives the built machine and reads the result off it.
// Two cells with the same key compute the same result. An experiment is
// a list of cells and a fold over their results.
type cell[T any] struct {
	name  string
	opt   Options
	study study
	run   func(ctx context.Context, r *rig) (T, error)
}

func (c cell[T]) key() CellKey { return CellKey{DigestEpoch, c.name, c.opt} }

// execute is the one way a cell runs: build its machine, run the cell on
// it, close the machine whether or not either step failed.
func (c cell[T]) execute(ctx context.Context) (v T, err error) {
	r := &rig{opt: c.opt}
	defer func() {
		if r.m != nil {
			r.m.Close() // hands its cache slabs to the next machine built
		}
	}()
	err = r.build(c.study)
	if r.m != nil && machineBuilt != nil {
		machineBuilt(c.key(), r.m)
	}
	if err == nil {
		v, err = c.run(ctx, r)
	}
	if err != nil {
		err = fmt.Errorf("experiments: %s: %w", c.name, err)
	}
	return v, err
}

// machineBuilt, when set by a test, observes every machine the executor
// builds, with the key of the cell it is built for.
var machineBuilt func(CellKey, *sim.Machine)

// memo holds the results of cells by key, so a machine several entries
// measure is simulated once: RunExperiment keeps one for its entries.
// While planning, runCells records the cells it is asked for instead of
// running them. A memo is never used by two goroutines at once.
type memo struct {
	planning bool
	planned  []cell[any]
	done     map[CellKey]any
}

type memoKey struct{}

// errPlanned is what runCells returns to a harness while planning.
var errPlanned = errors.New("experiments: cells planned, not run")

// runCells runs the cells and returns their results in cell order. Under
// RunExperiment their results are already in its memo; a harness called
// directly runs its own cells on the sweep pool.
func runCells[T any](ctx context.Context, cells []cell[T]) ([]T, error) {
	m, ok := ctx.Value(memoKey{}).(*memo)
	if !ok {
		m = &memo{done: map[CellKey]any{}}
	}
	out := make([]T, len(cells)) // zero values unless every cell ran
	erased := make([]cell[any], len(cells))
	for i, c := range cells {
		erased[i] = cell[any]{c.name, c.opt, c.study, func(ctx context.Context, r *rig) (any, error) { return c.run(ctx, r) }}
	}
	if m.planning {
		m.planned = append(m.planned, erased...)
		return out, errPlanned
	}
	if err := m.run(ctx, erased); err != nil {
		return out, err
	}
	for i, c := range cells {
		out[i] = m.done[c.key()].(T)
	}
	return out, nil
}

// runCell is runCells for an experiment of one cell.
func runCell[T any](ctx context.Context, c cell[T]) (T, error) {
	res, err := runCells(ctx, []cell[T]{c})
	return res[0], err
}

// run executes, on one sweep pool, every distinct cell the memo does not
// hold yet. A cell's machine is single-goroutine and seeded by its
// Options, so its result depends neither on the pool size nor on what
// ran beside it. A failed run leaves the memo as it found it.
func (m *memo) run(ctx context.Context, cells []cell[any]) error {
	var todo []cell[any]
	for _, c := range cells {
		if _, ok := m.done[c.key()]; !ok {
			m.done[c.key()] = nil
			todo = append(todo, c)
		}
	}
	results, err := sweep.Map(ctx, len(todo), 0, func(ctx context.Context, i int) (any, error) {
		return todo[i].execute(ctx)
	})
	for i, c := range todo {
		if err != nil {
			delete(m.done, c.key())
		} else {
			m.done[c.key()] = results[i]
		}
	}
	return err
}

// rig is one cell's machine: the machine with its workload installed
// and, when the study asked for one, its clustering engine attached.
type rig struct {
	opt  Options
	spec *workloads.Spec
	m    *sim.Machine
	eng  *core.Engine
}

// build is the one place a fresh harness machine comes from: config,
// then attach. The rig keeps the machine even when attaching the study
// fails, so the executor closes it either way.
func (r *rig) build(s study) error {
	cfg, err := r.config(s)
	if err != nil {
		return err
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return err
	}
	return r.attach(s, m)
}

// config builds the study's workload for the Options' seed and returns
// the configuration of the machine the study measures.
func (r *rig) config(s study) (cfg sim.Config, err error) {
	if s.workload != nil {
		if r.spec, err = s.workload(r.opt.Seed); err != nil {
			return cfg, err
		}
	}
	cfg = MachineConfig(r.opt, s.policy)
	if s.hardware != nil {
		s.hardware(&cfg)
		cfg.Caches.Coherence = r.opt.Coherence // survives a wholesale Caches swap
	}
	return cfg, nil
}

// attach makes m the rig's machine and puts the study on it: the
// workload, the clustering engine when the study asks for one, then
// setup. It is also the install step of a restore (WorkloadMachine), so
// a restored machine is composed exactly as a built one.
func (r *rig) attach(s study, m *sim.Machine) (err error) {
	r.m = m
	if s.install != nil {
		err = s.install(r)
	} else {
		err = r.spec.Install(r.m)
	}
	if err == nil && s.engine != nil {
		if r.eng, err = core.New(r.m, s.engine(r.opt.Seed)); err == nil {
			err = r.eng.Install()
		}
	}
	if err == nil && s.setup != nil {
		err = s.setup(r)
	}
	return err
}

// WorkloadMachine returns the machine of RunWorkload's cell for the named
// workload under policy, after it has run rounds more rounds: built
// fresh, or, when from is non-nil, restored from that snapshot with the
// workload and engine attached exactly as a fresh build attaches them
// (the rig's attach is the restore's install step). The caller closes
// the machine. `tcsim snapshot` builds and resumes its machines here.
func WorkloadMachine(ctx context.Context, name string, policy sched.Policy, opt Options, from *sim.MachineSnapshot, rounds int) (*sim.Machine, error) {
	s := workloadCell(name, policy, opt).study
	r := &rig{opt: opt}
	var err error
	if from == nil {
		err = r.build(s)
	} else {
		var cfg sim.Config
		if cfg, err = r.config(s); err == nil {
			r.m, err = sim.RestoreMachine(cfg, from, func(m *sim.Machine) error { return r.attach(s, m) })
		}
	}
	if err == nil {
		err = r.m.RunRoundsCtx(ctx, rounds)
	}
	if err != nil {
		if r.m != nil { // nil after a failed restore, which closes its machine
			r.m.Close()
		}
		return nil, err
	}
	return r.m, nil
}

// steady measures the built machine at steady state: WarmRounds +
// EngineRounds of warm-up, then MeasureRounds. Every policy warms for the
// same total rounds so that measurement windows are time-aligned: the
// workloads' data structures grow as they run (B-trees gain nodes), and
// comparing a young run against an old one would confound placement
// effects with workload age.
func steady(ctx context.Context, r *rig) (RunMetrics, error) {
	return r.measureRounds(ctx, r.opt.WarmRounds+r.opt.EngineRounds, r.opt.MeasureRounds)
}

// measureRounds warms the machine, discards the warm-up transients and
// measures the given number of rounds.
func (r *rig) measureRounds(ctx context.Context, warm, rounds int) (RunMetrics, error) {
	return r.measure(ctx, warm, func() error { return r.m.RunRoundsCtx(ctx, rounds) })
}

// measure is measureRounds with a caller-driven measured interval (a
// forced detection, a detector's observation window) in place of a fixed
// round count.
func (r *rig) measure(ctx context.Context, warm int, interval func() error) (RunMetrics, error) {
	if err := r.m.RunRoundsCtx(ctx, warm); err != nil {
		return RunMetrics{}, err
	}
	r.m.ResetMetrics()
	base := r.m.SnapshotMetrics()
	if err := interval(); err != nil {
		return RunMetrics{}, err
	}

	b := r.m.Breakdown()
	res := RunMetrics{
		Policy:         r.m.Config().Policy,
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
	return res, nil
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
// later re-activation), and the ground truth to score it against.
type detectionSnapshot struct {
	clusters   []clustering.Cluster
	shmaps     map[clustering.ThreadKey]*clustering.ShMap
	truth      map[clustering.ThreadKey]int
	partitions int
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
