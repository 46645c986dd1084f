package main

import (
	"context"
	"fmt"
	"time"

	"threadcluster/internal/clustering"
	"threadcluster/internal/core"
	"threadcluster/internal/experiments"
	"threadcluster/internal/fleet"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sched"
	"threadcluster/internal/server"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/sweep"
)

// tracedRunGrid does what experiments.RunGrid does — compile the grid,
// run it on the sweep pool, merge — with a span around each step and
// around every cell, and records the sweep, experiments and metrics-merge
// figures. Cell walls come from wrapping each task's Run closure.
func tracedRunGrid(ctx context.Context, grid experiments.GridSpec, rec *recorder, tr *tracer, ref string) ([]experiments.GridCell, []sweep.Result, metrics.Snapshot, error) {
	sp := tr.begin(-1, "experiments.compile", ref)
	start := time.Now()
	cells, tasks, err := grid.Tasks()
	compile := time.Since(start)
	tr.end(sp)
	if err != nil {
		return nil, nil, metrics.Snapshot{}, err
	}
	rec.metric("experiments.compile_ms", ms(compile))

	workers := parallelism()
	walls := make([]float64, len(tasks)) // seconds; each slot written by its own task only
	root := tr.begin(-1, "sweep.run", ref)
	wrapped := make([]sweep.Task, len(tasks))
	for i, t := range tasks {
		wrapped[i] = sweep.Task{Name: t.Name, Seed: t.Seed, Run: func(ctx context.Context, seed int64) (metrics.Snapshot, error) {
			sp := tr.begin(root, "sweep.cell", ref+"/"+t.Name)
			start := time.Now()
			snap, err := t.Run(ctx, seed)
			walls[i] = time.Since(start).Seconds()
			tr.end(sp)
			return snap, err
		}}
	}
	start = time.Now()
	results, err := sweep.Run(ctx, wrapped, workers)
	gridWall := time.Since(start)
	tr.end(root)
	if err != nil {
		return nil, nil, metrics.Snapshot{}, err
	}

	const mergeReps = 20
	var merged metrics.Snapshot
	sp = tr.begin(-1, "metrics.merge", ref)
	start = time.Now()
	for i := 0; i < mergeReps; i++ {
		merged = sweep.Merged(results)
	}
	rec.metric("metrics.merge_us", us(time.Since(start))/mergeReps)
	tr.end(sp)

	var sum, longest float64
	for _, w := range walls {
		sum += w
		longest = max(longest, w)
	}
	rec.metric("sweep.cell_wall_p50_s", median(walls))
	rec.metric("sweep.cell_wall_max_s", longest)
	rec.metric("sweep.pool_efficiency", sum/(float64(workers)*gridWall.Seconds()))

	// core: what attaching the engine costs a cell in host time, same
	// workload and seed, clustered over default.
	wallOf := make(map[string]float64, len(cells))
	for i, c := range cells {
		wallOf[c.Name()] = walls[i]
	}
	var ratios []float64
	for _, c := range cells {
		if c.Policy != sched.PolicyClustered {
			continue
		}
		def := c
		def.Policy = sched.PolicyDefault
		if w := wallOf[def.Name()]; w > 0 {
			ratios = append(ratios, wallOf[c.Name()]/w)
		}
	}
	rec.metric("core.engine_wall_ratio", mean(ratios))
	return cells, results, merged, nil
}

// fleetStats is what the coordinator's and the daemons' event streams say
// about a set of coordinator runs.
type fleetStats struct {
	runs            int
	planMS, mergeMS []float64 // one per run
	shardMS         []float64 // one per completed shard
	shards          int
	retries, steals int
	idleShares      []float64     // one per run
	shardWall       time.Duration // total leased -> done
	serverRun       time.Duration // total running -> done of the shard jobs on the daemons
}

// analyzeFleet joins the coordinator's NDJSON stream with the daemons'
// per-job event logs: a span per coordinator run, per phase and per shard
// attempt (ref grid/shard/attempt), with the daemon's run interval of the
// shard job as the shard span's child.
func analyzeFleet(ctx context.Context, rig *fleetRig, tr *tracer) (fleetStats, error) {
	var st fleetStats
	events, err := rig.events.events()
	if err != nil {
		return st, err
	}
	// The daemons' view: when each shard job ran.
	type interval struct{ start, end time.Time }
	jobRun := make(map[string]interval)
	for _, d := range rig.daemons {
		for _, js := range d.srv.Jobs() {
			var iv interval
			err := d.srv.Subscribe(ctx, js.ID, func(ev server.Event) error {
				switch ev.Type {
				case server.EventRunning:
					iv.start = ev.Time
				case server.EventDone:
					iv.end = ev.Time
				}
				return nil
			})
			if err != nil {
				return st, err
			}
			jobRun[js.ID] = iv
		}
	}

	type runState struct {
		span       int
		start      time.Time
		phase      string
		phaseStart time.Time
		leased     map[string]time.Time // "shard/attempt" -> lease time
		attempt    map[string]int       // shard -> latest attempt
		busy       time.Duration
	}
	runs := make(map[string]*runState)
	workers := float64(len(rig.daemons))
	for _, ev := range events {
		rs := runs[ev.Job]
		if rs == nil {
			rs = &runState{start: ev.Time, leased: make(map[string]time.Time), attempt: make(map[string]int)}
			rs.span = tr.add(-1, "fleet.job", ev.Job, ev.Time, ev.Time)
			runs[ev.Job] = rs
			st.runs++
		}
		closePhase := func(at time.Time) {
			if rs.phase == "" {
				return
			}
			tr.add(rs.span, "fleet."+rs.phase, ev.Job, rs.phaseStart, at)
			switch rs.phase {
			case "plan":
				st.planMS = append(st.planMS, ms(at.Sub(rs.phaseStart)))
			case "merge":
				st.mergeMS = append(st.mergeMS, ms(at.Sub(rs.phaseStart)))
			}
		}
		switch ev.Type {
		case fleet.EventPhase:
			closePhase(ev.Time)
			rs.phase, rs.phaseStart = ev.Phase, ev.Time
		case fleet.EventShardLeased, fleet.EventShardSteal:
			rs.attempt[ev.Shard] = ev.Attempt
			rs.leased[fmt.Sprintf("%s/a%d", ev.Shard, ev.Attempt)] = ev.Time
			if ev.Type == fleet.EventShardSteal {
				st.steals++
			}
		case fleet.EventShardRetry:
			st.retries++
		case fleet.EventShardDone:
			key := fmt.Sprintf("%s/a%d", ev.Shard, rs.attempt[ev.Shard])
			leased, ok := rs.leased[key]
			if !ok {
				continue
			}
			st.shards++
			st.shardMS = append(st.shardMS, ms(ev.Time.Sub(leased)))
			st.shardWall += ev.Time.Sub(leased)
			rs.busy += ev.Time.Sub(leased)
			ref := fmt.Sprintf("%s/%s", ev.Job, key)
			sp := tr.add(rs.span, "fleet.shard", ref, leased, ev.Time)
			jobID := fmt.Sprintf("%s-%s-a%d", ev.Job, ev.Shard, rs.attempt[ev.Shard])
			if iv, ok := jobRun[jobID]; ok && !iv.end.IsZero() {
				tr.add(sp, "server.run", ref, iv.start, iv.end)
				st.serverRun += iv.end.Sub(iv.start)
			}
		case fleet.EventDone, fleet.EventFailed:
			closePhase(ev.Time)
			wall := ev.Time.Sub(rs.start)
			if wall > 0 {
				st.idleShares = append(st.idleShares, 1-rs.busy.Seconds()/(workers*wall.Seconds()))
			}
			tr.setEnd(rs.span, ev.Time)
		}
	}
	return st, nil
}

// record records the fleet figures every service workload shares.
// overhead is fleet wall over offline wall for the same grid.
func (st fleetStats) record(rec *recorder, cells []experiments.GridCell, overhead float64) {
	const reps = 100
	start := time.Now()
	for i := 0; i < reps; i++ {
		fleet.Partition(cells, 64) // the coordinator's default ring size
	}
	rec.metric("fleet.partition_us", us(time.Since(start))/reps)
	rec.metric("fleet.plan_ms", median(st.planMS))
	rec.metric("fleet.merge_ms", median(st.mergeMS))
	rec.metric("fleet.shard_ms_p50", median(st.shardMS))
	rec.metric("fleet.shards_per_grid", float64(st.shards)/float64(max(st.runs, 1)))
	rec.metric("fleet.retries", float64(st.retries))
	rec.metric("fleet.steals", float64(st.steals))
	rec.metric("fleet.idle_share", median(st.idleShares))
	rec.metric("fleet.overhead_ratio", overhead)
}

// traceGridPaper is the traced pass of grid-paper: the grid again with
// spans, the coordinator's and daemons' event streams joined into shard
// spans, and one clustered cell driven directly for the core and
// clustering layers.
func traceGridPaper(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer, e2e gridPass) error {
	traced, err := runGridPass(ctx, cfg, rec, tr)
	if err != nil {
		return err
	}
	untraced := e2e.offlineWall + e2e.fleetWall
	rec.metric("trace.overhead_pct", 100*((traced.offlineWall+traced.fleetWall).Seconds()/untraced.Seconds()-1))
	rec.metric("metrics.json_bytes_per_cell", float64(len(traced.payload))/float64(len(traced.cells)))

	var builds []float64
	for _, name := range experiments.AllWorkloads() {
		d, err := timeWorkloadBuild(name, cfg.Seed)
		if err != nil {
			return err
		}
		builds = append(builds, ms(d))
	}
	rec.metric("workloads.build_ms", mean(builds))

	if err := traceEngineCell(ctx, cfg, rec, tr); err != nil {
		return err
	}
	if cfg.SpansPath != "" {
		return tr.write(cfg.SpansPath)
	}
	return nil
}

// traceFleetRuns analyzes the rig's event streams after the traced
// coordinator runs and records the fleet and server-overhead figures.
func traceFleetRuns(ctx context.Context, rig *fleetRig, rec *recorder, tr *tracer, cells []experiments.GridCell, fleetWall, offlineWall time.Duration) error {
	st, err := analyzeFleet(ctx, rig, tr)
	if err != nil {
		return err
	}
	st.record(rec, cells, fleetWall.Seconds()/offlineWall.Seconds())
	// server: the part of a shard's lease the daemon did not spend
	// running it — submit, queue, event stream, result fetch and decode.
	rec.metric("server.overhead_share", 1-st.serverRun.Seconds()/st.shardWall.Seconds())
	return nil
}

// timeWorkloadBuild times BuildWorkload plus Spec.Install for one
// workload name; the machine it installs into is built off the clock.
func timeWorkloadBuild(name string, seed int64) (time.Duration, error) {
	start := time.Now()
	spec, err := experiments.BuildWorkload(name, seed)
	if err != nil {
		return 0, err
	}
	built := time.Since(start)
	m, err := sim.NewMachine(sim.DefaultConfig())
	if err != nil {
		return 0, err
	}
	start = time.Now()
	if err := spec.Install(m); err != nil {
		return 0, err
	}
	return built + time.Since(start), nil
}

// traceEngineCell runs the grid's rubis/clustered cell by hand — the same
// composition experiments.RunWorkload builds — keeping hold of the
// engine, which the sweep's snapshot-only results do not expose: its
// activity counts, its overflow-handler cycles, and the shMaps of its
// first detection, over which the one-pass clusterer is then timed.
func traceEngineCell(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer) error {
	norm, err := gridPaperSpec(cfg).Normalize()
	if err != nil {
		return err
	}
	grid, err := norm.Grid()
	if err != nil {
		return err
	}
	var cell experiments.GridCell
	for _, c := range grid.Cells() {
		if c.Workload == experiments.Rubis && c.Policy == sched.PolicyClustered {
			cell = c
		}
	}
	topo, err := experiments.ParseTopo(cell.Topo)
	if err != nil {
		return err
	}
	spec, err := experiments.BuildWorkload(cell.Workload, cell.Seed)
	if err != nil {
		return err
	}
	mcfg := sim.DefaultConfig()
	mcfg.Topo = topo
	mcfg.Policy = cell.Policy
	mcfg.QuantumCycles = grid.Opt.QuantumCycles
	mcfg.Seed = cell.Seed
	m, err := sim.NewMachine(mcfg)
	if err != nil {
		return err
	}
	if err := spec.Install(m); err != nil {
		return err
	}
	ecfg := experiments.ScaledEngineConfig(cell.Seed)
	eng, err := core.New(m, ecfg)
	if err != nil {
		return err
	}
	if err := eng.Install(); err != nil {
		return err
	}
	var shmaps map[clustering.ThreadKey]*clustering.ShMap
	eng.OnClusters(func([]clustering.Cluster) {
		if shmaps != nil {
			return // keep the first detection's maps; a later one resets them
		}
		shmaps = make(map[clustering.ThreadKey]*clustering.ShMap, len(eng.ShMaps()))
		for k, v := range eng.ShMaps() {
			shmaps[k] = v.Clone()
		}
	})
	ref := "grid-paper/" + cell.Name()
	sp := tr.begin(-1, "core.cell", ref)
	err = m.RunRoundsCtx(ctx, grid.Opt.WarmRounds+grid.Opt.EngineRounds+grid.Opt.MeasureRounds)
	tr.end(sp)
	if err != nil {
		return err
	}
	rec.metric("core.activations", float64(eng.Activations()))
	rec.metric("core.samples_read", float64(eng.SamplesRead()))
	rec.metric("core.samples_admitted", float64(eng.SamplesAdmitted()))
	rec.metric("core.migrations", float64(eng.MigrationsDone()))
	rec.metric("core.detection_cycles", float64(eng.LastDetectionCycles()))
	rec.metric("pmu.overflow_cycles_pct", 100*stats.Ratio(float64(m.OverheadCycles()), float64(m.Breakdown().Cycles)))

	if shmaps == nil {
		shmaps = eng.ShMaps() // no detection completed (toy sizes): whatever was sampled
	}
	const reps = 100
	var clusters []clustering.Cluster
	sp = tr.begin(-1, "clustering.cluster", ref)
	start := time.Now()
	for i := 0; i < reps; i++ {
		clusters = ecfg.Clustering.Cluster(shmaps)
	}
	rec.metric("clustering.cluster_us", us(time.Since(start))/reps)
	tr.end(sp)
	truth := make(map[clustering.ThreadKey]int, len(spec.Threads))
	for id, part := range spec.Truth() {
		truth[clustering.ThreadKey(id)] = part
	}
	rec.metric("clustering.purity", clustering.Purity(clusters, truth))
	return nil
}
