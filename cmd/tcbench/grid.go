package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/server"
	"threadcluster/internal/sim"
	"threadcluster/internal/sweep"
)

// setupReps is how many times a service workload sets itself up (spec
// normalization, daemons, coordinator, warm-up); setup_s is the median,
// and the last set-up is the one the run uses.
func setupReps(cfg runConfig) int {
	if cfg.Quick {
		return 1
	}
	return 5
}

// gridPaperSpec is the Fig. 6/7 grid: every workload under the default
// and the clustered policy on the OpenPower 720. The run lengths are the
// root bench_test.go's 100/2000/200 rounds scaled by seconds/30: at the
// default 15 s that is 50/1000/100, the shortest at which the clustering
// engine still finishes detection and migration on every workload before
// the measured interval (at a third of the full lengths it no longer
// does, and the paper figures collapse).
func gridPaperSpec(cfg runConfig) server.JobSpec {
	spec := server.JobSpec{
		Workloads: experiments.AllWorkloads(),
		Policies:  []string{sched.PolicyDefault.String(), sched.PolicyClustered.String()},
		Topos:     []string{experiments.TopoOpenPower720},
		Seed:      sweep.DeriveSeed(cfg.Seed, 0),
	}
	if cfg.Quick {
		spec.WarmRounds, spec.EngineRounds, spec.MeasureRounds = 2, 20, 4
		return spec
	}
	scale := func(full int) int { return max(1, full*cfg.Seconds/30) }
	spec.WarmRounds, spec.EngineRounds, spec.MeasureRounds = scale(100), scale(2000), scale(200)
	return spec
}

// gridPass is what one pass of grid-paper measured.
type gridPass struct {
	setups      []float64
	cells       []experiments.GridCell
	results     []sweep.Result
	offlineWall time.Duration
	fleetWall   time.Duration
	payload     []byte // the fleet's merged payload bytes
}

// setupFleetOnce normalizes the spec, starts the daemons and the
// coordinator, and pushes the spec through once at 1/1/1 rounds so that
// connections, code paths and the allocator are warm before timing.
func setupFleetOnce(ctx context.Context, spec server.JobSpec, taskWorkers int, traced bool, seed int64, rep int) (*fleetRig, server.JobSpec, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, norm, err
	}
	rig, err := startFleet(ctx, parallelism(), taskWorkers, traced, seed)
	if err != nil {
		return nil, norm, err
	}
	warm := norm
	warm.ID = fmt.Sprintf("tcb-warm-%d-%d", seed, rep)
	warm.WarmRounds, warm.EngineRounds, warm.MeasureRounds = 1, 1, 1
	_, _, err = rig.coord.Run(ctx, warm)
	if err == nil && traced {
		_, err = rig.events.events() // the warm-up's events are not part of the trace
	}
	if err != nil {
		rig.stop(ctx)
		return nil, norm, fmt.Errorf("warm-up grid: %w", err)
	}
	return rig, norm, nil
}

// setupFleet sets the rig up setupReps(cfg) times and returns the last rig,
// the normalized spec and the set-up times.
func setupFleet(ctx context.Context, cfg runConfig, spec server.JobSpec, taskWorkers int, traced bool) (*fleetRig, server.JobSpec, []float64, error) {
	var setups []float64
	for rep := 0; ; rep++ {
		start := time.Now()
		rig, norm, err := setupFleetOnce(ctx, spec, taskWorkers, traced, cfg.Seed, rep)
		if err != nil {
			return nil, norm, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep == setupReps(cfg)-1 {
			return rig, norm, setups, nil
		}
		rig.stop(ctx)
	}
}

// runGridPass runs the grid offline through experiments.RunGrid with P
// workers, then the same spec through the fleet coordinator over P
// loopback daemons of one task worker each, and checks every cell and
// the offline = fleet digest identity.
func runGridPass(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer) (gridPass, error) {
	var pass gridPass
	spec := gridPaperSpec(cfg)
	rig, norm, setups, err := setupFleet(ctx, cfg, spec, 1, tr != nil)
	if err != nil {
		return pass, err
	}
	defer rig.stop(ctx)
	pass.setups = setups
	grid, err := norm.Grid()
	if err != nil {
		return pass, err
	}
	ref := fmt.Sprintf("grid-paper/seed%d", cfg.Seed)
	runtime.GC()

	var merged metrics.Snapshot
	start := time.Now()
	if tr == nil {
		pass.cells, pass.results, merged, err = experiments.RunGrid(ctx, grid, parallelism())
	} else {
		pass.cells, pass.results, merged, err = tracedRunGrid(ctx, grid, rec, tr, ref)
	}
	pass.offlineWall = time.Since(start)
	if err != nil {
		return pass, err
	}
	offline, err := server.Digest(pass.cells, pass.results, merged)
	if err != nil {
		return pass, err
	}
	rec.attempt(len(pass.results))
	for _, r := range pass.results {
		if r.Err != nil {
			rec.fail("grid-paper: offline cell %s: %v", r.Name, r.Err)
		}
	}

	norm.ID = fmt.Sprintf("tcb-grid-%d", cfg.Seed)
	sp := tr.begin(-1, "fleet.run", norm.ID)
	start = time.Now()
	payload, data, err := rig.coord.Run(ctx, norm)
	pass.fleetWall = time.Since(start)
	tr.end(sp)
	if err != nil {
		return pass, err
	}
	pass.payload = data
	rec.attempt(len(payload.Tasks))
	for _, t := range payload.Tasks {
		if t.Error != "" {
			rec.fail("grid-paper: fleet cell %s: %s", t.Name, t.Error)
		}
	}
	if cfg.forceMismatch {
		offline += "-forced"
	}
	rec.check(offline == payload.Digest, "grid-paper: offline digest %s, fleet digest %s", offline, payload.Digest)
	rec.digest("payload", payload.Digest)

	if tr != nil {
		if err := traceFleetRuns(ctx, rig, rec, tr, pass.cells, pass.fleetWall, pass.offlineWall); err != nil {
			return pass, err
		}
	}
	return pass, nil
}

// offlineRun is one spec run the way `tcsim sweep` runs it.
type offlineRun struct {
	cells   []experiments.GridCell
	results []sweep.Result
	merged  metrics.Snapshot
	digest  string        // the payload digest a daemon would report
	wall    time.Duration // of experiments.RunGrid alone
}

// runOffline normalizes and compiles the spec and runs it through
// experiments.RunGrid: the reference every daemon and fleet digest is
// held to.
func runOffline(ctx context.Context, spec server.JobSpec, workers int) (offlineRun, error) {
	var run offlineRun
	norm, err := spec.Normalize()
	if err != nil {
		return run, err
	}
	grid, err := norm.Grid()
	if err != nil {
		return run, err
	}
	start := time.Now()
	run.cells, run.results, run.merged, err = experiments.RunGrid(ctx, grid, workers)
	run.wall = time.Since(start)
	if err != nil {
		return run, err
	}
	run.digest, err = server.Digest(run.cells, run.results, run.merged)
	return run, err
}

// remoteStallFraction is remote-cache stall cycles over cycles.
func remoteStallFraction(s metrics.Snapshot) float64 {
	cycles := s.Counter(sim.MetricPMUCycles, nil)
	if cycles == 0 {
		return 0
	}
	remote := s.Counter(sim.MetricPMUStalls, metrics.Labels{"event": pmu.EvStallRemoteL2.String()}) +
		s.Counter(sim.MetricPMUStalls, metrics.Labels{"event": pmu.EvStallRemoteL3.String()})
	return float64(remote) / float64(cycles)
}

// opsPerMCycle is application operations per million machine cycles.
func opsPerMCycle(s metrics.Snapshot) float64 {
	cycles := s.Counter(sim.MetricPMUCycles, nil)
	if cycles == 0 {
		return 0
	}
	return float64(s.Counter(sim.MetricOps, nil)) / (float64(cycles) / 1e6)
}

// paperFigures returns the best remote-stall reduction and the best
// throughput gain of clustered over default placement among the three
// server workloads (Figures 6 and 7), in percent.
func paperFigures(cells []experiments.GridCell, results []sweep.Result) (stallReduction, throughputGain float64) {
	byName := make(map[string]metrics.Snapshot, len(cells))
	for i, c := range cells {
		byName[c.Name()] = results[i].Metrics
	}
	for _, w := range experiments.ServerWorkloads() {
		def := byName[w+"/"+sched.PolicyDefault.String()+"/"+experiments.TopoOpenPower720]
		clu := byName[w+"/"+sched.PolicyClustered.String()+"/"+experiments.TopoOpenPower720]
		if f := remoteStallFraction(def); f > 0 {
			stallReduction = max(stallReduction, 100*(1-remoteStallFraction(clu)/f))
		}
		if o := opsPerMCycle(def); o > 0 {
			throughputGain = max(throughputGain, 100*(opsPerMCycle(clu)/o-1))
		}
	}
	return stallReduction, throughputGain
}

// runGridPaper is the whole workload.
func runGridPaper(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer) error {
	e2e, err := runGridPass(ctx, cfg, rec, nil)
	if err != nil {
		return err
	}
	n := float64(len(e2e.cells))
	rec.metric("cells_per_s", n/e2e.offlineWall.Seconds())
	rec.metric("fleet_cells_per_s", n/e2e.fleetWall.Seconds())
	stall, gain := paperFigures(e2e.cells, e2e.results)
	rec.metric("paper.remote_stall_reduction_pct", stall)
	rec.metric("paper.throughput_gain_pct", gain)
	if tr == nil {
		rec.metric("setup_s", median(e2e.setups))
		rec.metric("timed_wall_s", (e2e.offlineWall + e2e.fleetWall).Seconds())
		rec.metric("peak_rss_mb", peakRSSMB())
		return nil
	}
	runtime.GC()
	return traceGridPaper(ctx, cfg, rec, tr, e2e)
}
