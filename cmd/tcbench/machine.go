package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"time"

	"threadcluster/internal/cache"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sim"
	"threadcluster/internal/topology"
)

// machineDef sizes one bare-machine workload. The work of a run is
// roundsPerSecond x seconds scheduling rounds — a constant for a given
// -seconds, never a time limit — so simulated statistics of two commits
// compare exactly and only host time is noisy.
type machineDef struct {
	workload string
	gen      string // experiments workload name
	topo     func() topology.Topology
	// deferred says the default configuration runs this workload's rounds
	// under the deferred slice-barrier model (multi-chip directory,
	// confined generators); an identity check then pits EngineSeq against
	// EngineParallel.
	deferred        bool
	warmRounds      int
	roundsPerSecond int
	segments        int
}

// The rates were measured on the 2-core reference box at the parent
// commit (about 2.5 Mrefs/s serial, 5.9 Mrefs/s deferred) so that the
// timed rounds take about -seconds there.
var machineDefs = map[string]machineDef{
	wlMachineSerial: {
		workload: wlMachineSerial, gen: experiments.JBB, topo: topology.OpenPower720,
		warmRounds: 200, roundsPerSecond: 410, segments: 20,
	},
	wlMachineDeferred: {
		workload: wlMachineDeferred, gen: experiments.Volano, topo: topology.Power5_32Way,
		deferred: true, warmRounds: 200, roundsPerSecond: 260, segments: 20,
	},
}

// machineReps is how many times a run repeats the same work — set-up
// and timed rounds, same seed — on a fresh machine. On a shared box,
// neighbours' cache and memory traffic only ever add host time, in bursts
// of seconds; the fastest of several identical repetitions is the
// steadiest estimate of what the code itself costs. The repetitions
// double as the same-seed rerun identity check.
const machineReps = 5

// sizes resolves the run's round counts: warm rounds, and the timed
// rounds of one repetition (a whole number of segments).
func (d machineDef) sizes(cfg runConfig) (warm, rounds int) {
	if cfg.Quick {
		return 5, d.segments
	}
	perSegment := max(1, d.roundsPerSecond*cfg.Seconds/(machineReps*d.segments))
	return d.warmRounds, perSegment * d.segments
}

// builtMachine is a warmed machine plus what building it cost.
type builtMachine struct {
	m          *sim.Machine
	cfg        sim.Config
	threads    int
	build      time.Duration // BuildWorkload + Spec.Install
	newMachine time.Duration // sim.NewMachine
	total      time.Duration // build + newMachine + warm rounds
}

// build constructs the workload and machine and runs the warm rounds.
func (d machineDef) build(ctx context.Context, seed int64, engine sim.Engine, coh cache.CoherenceMode, warm int) (*builtMachine, error) {
	start := time.Now()
	spec, err := experiments.BuildWorkload(d.gen, seed)
	if err != nil {
		return nil, err
	}
	specBuilt := time.Now()
	mcfg := sim.DefaultConfig()
	mcfg.Topo = d.topo()
	mcfg.Seed = seed
	// The scheduling quantum of the experiment harnesses, so a round here
	// is the round a grid cell runs.
	mcfg.QuantumCycles = experiments.DefaultOptions().QuantumCycles
	mcfg.Engine = engine
	mcfg.Caches.Coherence = coh
	m, err := sim.NewMachine(mcfg)
	if err != nil {
		return nil, err
	}
	machineBuilt := time.Now()
	if err := spec.Install(m); err != nil {
		return nil, err
	}
	installed := time.Now()
	if err := m.RunRoundsCtx(ctx, warm); err != nil {
		return nil, err
	}
	// Discard the warm-up transient from the PMU and thread counters,
	// keeping the caches warm, as the experiment harnesses do.
	m.ResetMetrics()
	return &builtMachine{
		m: m, cfg: mcfg, threads: len(spec.Threads),
		build:      specBuilt.Sub(start) + installed.Sub(machineBuilt),
		newMachine: machineBuilt.Sub(specBuilt),
		total:      time.Since(start),
	}, nil
}

// totalRefs sums the hierarchy's per-source access counts: every memory
// reference the machine has simulated.
func totalRefs(m *sim.Machine) uint64 {
	var n uint64
	for _, c := range m.Hierarchy().SourceCounts() {
		n += c
	}
	return n
}

// metricsDigest hashes the machine's metrics snapshot; it exists for
// every machine, including those whose generators cannot be snapshotted.
func metricsDigest(m *sim.Machine) (string, error) {
	var buf bytes.Buffer
	if err := m.SnapshotMetrics().WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("tcbench: encoding metrics snapshot: %w", err)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(buf.Bytes())), nil
}

// machineSnapshotDigest digests the machine's complete mutable state. It
// needs confined generators, so only the deferred workload can use it.
func machineSnapshotDigest(ctx context.Context, m *sim.Machine) (string, error) {
	snap, err := m.Snapshot(ctx)
	if err != nil {
		return "", err
	}
	return snap.Digest(), nil
}

// machinePass is what one pass (repeated set-up, identity checks and
// timed rounds) over a machine workload measured.
type machinePass struct {
	main   *builtMachine // the last repetition's machine
	setups []float64     // seconds, one per repetition
	// wall is the robust wall of one repetition's timed rounds: the sum
	// over segments of the fastest, across repetitions, wall of that
	// segment. refs and rounds are one repetition's too.
	wall     time.Duration
	refs     uint64
	rounds   int
	repRates []float64        // refs/s of each repetition, from its own wall
	cpi      float64          // over the timed rounds
	delta    metrics.Snapshot // metrics over the timed rounds
	mallocs  uint64           // traced pass only, last repetition
}

func (p machinePass) refsPerSecond() float64 { return float64(p.refs) / p.wall.Seconds() }

// runMachinePass repeats set-up plus timed rounds machineReps times with
// the same seed. Every repetition must end on the same metrics digest
// (the same-seed rerun identity); where rounds are deferred, an EngineSeq
// machine is also run up to the first segment boundary and its
// machine-snapshot digest must equal the default engine's there.
func (d machineDef) runMachinePass(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer) (machinePass, error) {
	warm, rounds := d.sizes(cfg)
	per := rounds / d.segments
	pass := machinePass{rounds: rounds}
	runRef := fmt.Sprintf("%s/seed%d", d.workload, cfg.Seed)
	root := tr.begin(-1, "machine.pass", runRef)
	defer tr.end(root)

	var seqPrefix, parPrefix string
	if d.deferred {
		b, err := d.build(ctx, cfg.Seed, sim.EngineSeq, cache.CoherenceDirectory, warm)
		if err != nil {
			return pass, err
		}
		if err := b.m.RunRoundsCtx(ctx, per); err != nil {
			return pass, err
		}
		if seqPrefix, err = machineSnapshotDigest(ctx, b.m); err != nil {
			return pass, err
		}
	}

	segWalls := make([][]float64, d.segments) // [segment][repetition], seconds
	var digests []string
	for rep := 0; rep < machineReps; rep++ {
		repRef := fmt.Sprintf("%s/rep%d", runRef, rep)
		// The previous repetition's machine is garbage: collect it before
		// building the next, so that peak memory is one machine's.
		pass.main = nil
		runtime.GC()
		sp := tr.begin(root, "machine.setup", repRef)
		b, err := d.build(ctx, cfg.Seed, sim.EngineParallel, cache.CoherenceDirectory, warm)
		tr.end(sp)
		if err != nil {
			return pass, err
		}
		pass.main = b
		pass.setups = append(pass.setups, b.total.Seconds())
		runtime.GC() // set-up garbage goes before the timed rounds, not during them

		m := b.m
		base := m.SnapshotMetrics()
		var ms0, ms1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		refs0 := totalRefs(m)
		var repWall time.Duration
		timed := tr.begin(root, "sim.rounds", repRef)
		for seg := 0; seg < d.segments; seg++ {
			sp := tr.begin(timed, "sim.segment", fmt.Sprintf("%s/seg%d", repRef, seg))
			start := time.Now()
			err := m.RunRoundsCtx(ctx, per)
			elapsed := time.Since(start)
			tr.end(sp)
			if err != nil {
				return pass, err
			}
			segWalls[seg] = append(segWalls[seg], elapsed.Seconds())
			repWall += elapsed
			if d.deferred && rep == 0 && seg == 0 {
				if parPrefix, err = machineSnapshotDigest(ctx, m); err != nil {
					return pass, err
				}
			}
		}
		tr.end(timed)
		if tr != nil {
			runtime.ReadMemStats(&ms1)
			pass.mallocs = ms1.Mallocs - ms0.Mallocs
		}
		pass.refs = totalRefs(m) - refs0
		pass.repRates = append(pass.repRates, float64(pass.refs)/repWall.Seconds())
		pass.cpi = m.Breakdown().CPI()
		pass.delta = m.SnapshotMetrics().Delta(base)
		dg, err := metricsDigest(m)
		if err != nil {
			return pass, err
		}
		digests = append(digests, dg)
	}
	for _, walls := range segWalls {
		pass.wall += time.Duration(slices.Min(walls) * float64(time.Second))
	}
	rec.attempt(machineReps * d.segments)

	if cfg.forceMismatch {
		digests[0] += "-forced"
	}
	for rep := 1; rep < machineReps; rep++ {
		rec.check(digests[rep] == digests[0], "%s: same-seed rerun %d ended on digest %s, rerun 0 on %s",
			d.workload, rep, digests[rep], digests[0])
	}
	rec.digest("metrics", digests[machineReps-1])
	if d.deferred {
		rec.check(seqPrefix == parPrefix, "%s: EngineSeq and EngineParallel machine snapshots differ after %d rounds: %s vs %s",
			d.workload, warm+per, seqPrefix, parPrefix)
		final, err := machineSnapshotDigest(ctx, pass.main.m)
		if err != nil {
			return pass, err
		}
		rec.digest("machine", final)
	}
	return pass, nil
}

// recordE2E records the end-to-end figures of an untraced pass.
func (p machinePass) recordE2E(rec *recorder) {
	q1, _, q3 := quartiles(p.repRates)
	rec.put(metricValue{Name: "sim_refs_per_s", Value: p.refsPerSecond(), N: len(p.repRates), Q1: q1, Q3: q3})
	rec.metric("sim_cpi", p.cpi)
}

// runMachine is the whole workload: the untraced pass, and for a traced
// run a second, traced pass plus the layer replays.
func runMachine(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer) error {
	d := machineDefs[cfg.Workload]
	e2e, err := d.runMachinePass(ctx, cfg, rec, nil)
	if err != nil {
		return err
	}
	e2e.recordE2E(rec)
	if tr == nil {
		rec.metric("setup_s", median(e2e.setups))
		rec.metric("timed_wall_s", e2e.wall.Seconds())
		rec.metric("peak_rss_mb", peakRSSMB())
		return nil
	}
	e2e.main = nil
	runtime.GC()
	return d.traceMachine(ctx, cfg, rec, tr, e2e)
}
