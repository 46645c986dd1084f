package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/experiments"
	"threadcluster/internal/sched"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// floorJobKind is one kind of one-cell job of the service-floor mix.
type floorJobKind struct {
	workload string
	policy   sched.Policy
}

// floorMix is the rotation of one-cell jobs: the four workloads under
// the default and the clustered policy. Microbenchmark and volano jobs
// (cheap construction) appear three times for each specjbb or rubis job
// (each builds a B-tree, about half the job): with the two kinds in equal
// numbers the median would fall in the gap between their latencies and
// flip from run to run; at 3:1 the median is a cheap job's latency and
// the 90th percentile a B-tree job's.
var floorMix = func() []floorJobKind {
	var mix []floorJobKind
	for _, pol := range []sched.Policy{sched.PolicyDefault, sched.PolicyClustered} {
		for i := 0; i < 3; i++ {
			mix = append(mix, floorJobKind{experiments.Microbenchmark, pol}, floorJobKind{experiments.Volano, pol})
		}
		mix = append(mix, floorJobKind{experiments.JBB, pol}, floorJobKind{experiments.Rubis, pol})
	}
	return mix
}()

// floorSizes are the service-floor job and repetition counts: the
// closed-loop job count of phases A and B and the coordinator
// repetitions of phase C. The rates were measured on the reference box
// so that each phase takes about a third of -seconds.
type floorSizes struct{ jobs, fleetReps int }

func floorSizesFor(cfg runConfig) floorSizes {
	if cfg.Quick {
		return floorSizes{jobs: 20, fleetReps: 2}
	}
	return floorSizes{jobs: 40 * cfg.Seconds, fleetReps: 3 * cfg.Seconds / 2}
}

// oneCellJob is a job of one open720 cell at 1/1/1 rounds, so that the
// simulation is a small share of it.
func oneCellJob(kind floorJobKind, seed int64) server.JobSpec {
	return server.JobSpec{
		Workloads:  []string{kind.workload},
		Policies:   []string{kind.policy.String()},
		Topos:      []string{experiments.TopoOpenPower720},
		Seed:       seed,
		WarmRounds: 1, EngineRounds: 1, MeasureRounds: 1,
	}
}

// floorJob is the i-th job of the mix, with a seed of its own.
func floorJob(cfg runConfig, i int) server.JobSpec {
	return oneCellJob(floorMix[i%len(floorMix)], sweep.DeriveSeed(cfg.Seed, 1000+i))
}

// floorGrid is the full 32-cell grid (4 workloads x 4 policies x 2
// topologies) at 1/1/1 rounds that phase C pushes through the fleet;
// every repetition has a seed and an ID of its own, so no shard job is
// ever answered from a finished twin on a daemon.
func floorGrid(cfg runConfig, rep int) server.JobSpec {
	topos := []string{experiments.TopoOpenPower720, experiments.TopoPower5_32}
	if cfg.Quick {
		topos = topos[:1] // building 32-way machines is most of a toy grid's time
	}
	return server.JobSpec{
		ID:        fmt.Sprintf("tcb-floor-%d-%d", cfg.Seed, rep),
		Workloads: experiments.AllWorkloads(),
		Policies: []string{
			sched.PolicyDefault.String(), sched.PolicyRoundRobin.String(),
			sched.PolicyHandOptimized.String(), sched.PolicyClustered.String(),
		},
		Topos:      topos,
		Seed:       sweep.DeriveSeed(cfg.Seed, 500000+rep),
		WarmRounds: 1, EngineRounds: 1, MeasureRounds: 1,
	}
}

// jobTiming is one job as its closed-loop caller saw it.
type jobTiming struct {
	id            string
	span          int           // traced pass only: the job's root span
	latency       time.Duration // Submit call -> result bytes in hand
	submit, fetch time.Duration // traced pass only
	doneSeen      time.Time     // traced pass only: terminal event observed
	digest        string
	payloadBytes  int
	rejected      int // 429 responses before admission
}

// runJob submits one job and waits for its result the way a user does:
// Submit, Wait, Result. The traced variant breaks Wait into its parts to
// time them; it performs the same requests.
func runJob(ctx context.Context, cl *client.Client, spec server.JobSpec, tr *tracer, ref string) (jobTiming, error) {
	var jt jobTiming
	root := tr.begin(-1, "client.job", ref)
	defer tr.end(root)
	jt.span = root
	start := time.Now()
	sp := tr.begin(root, "client.submit", ref)
	st, err := cl.Submit(ctx, spec)
	for err != nil && tooMany(err) { // closed loop: a refused job is offered again
		jt.rejected++
		st, err = cl.Submit(ctx, spec)
	}
	tr.end(sp)
	jt.submit = time.Since(start)
	if err != nil {
		return jt, err
	}
	jt.id = st.ID
	if tr == nil {
		st, err = cl.Wait(ctx, st.ID)
	} else {
		sp = tr.begin(root, "client.wait", ref)
		err = cl.Events(ctx, st.ID, func(ev server.Event) error {
			if ev.Type == server.EventDone || ev.Type == server.EventFailed || ev.Type == server.EventCanceled {
				jt.doneSeen = time.Now()
			}
			return nil
		})
		if err == nil {
			st, err = cl.Status(ctx, st.ID)
		}
		tr.end(sp)
	}
	if err != nil {
		return jt, err
	}
	if st.State != server.StateDone {
		return jt, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	fetchStart := time.Now()
	sp = tr.begin(root, "client.result", ref)
	data, err := cl.Result(ctx, st.ID)
	tr.end(sp)
	if err != nil {
		return jt, err
	}
	jt.fetch = time.Since(fetchStart)
	jt.latency = time.Since(start)
	jt.digest = st.Digest
	jt.payloadBytes = len(data)
	return jt, nil
}

// tooMany reports a 429 admission refusal.
func tooMany(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

// closedLoop runs jobs [first, first+n) from `clients` closed-loop
// callers, each taking the next job when its previous one completes, and
// returns the jobs' timings in job order plus the wall of the whole loop.
// A failed job counts as failed and has no timing.
func closedLoop(ctx context.Context, cfg runConfig, d *daemon, hc *http.Client, first, n, clients int, rec *recorder, tr *tracer, phase string) ([]jobTiming, time.Duration) {
	timings := make([]jobTiming, n)
	failed := make([]error, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(d.url, hc)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				ref := fmt.Sprintf("service-floor/%s/job%d", phase, first+i)
				timings[i], failed[i] = runJob(ctx, cl, floorJob(cfg, first+i), tr, ref)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	rec.attempt(n)
	var ok []jobTiming
	for i, err := range failed {
		if err != nil {
			rec.fail("service-floor: phase %s job %d: %v", phase, first+i, err)
			continue
		}
		ok = append(ok, timings[i])
	}
	return ok, wall
}

// floorPass is what one pass of service-floor measured.
type floorPass struct {
	setups     []float64
	serial     []jobTiming // phase A
	serialWall time.Duration
	parallel   []jobTiming // phase B
	parWall    time.Duration
	gridWalls  []float64 // phase C, seconds per coordinator run
	gridWall   time.Duration
	gridBytes  int           // payload size of the first grid
	offline    time.Duration // one offline run of the phase C grid
	daemon     *daemon
	rig        *fleetRig
}

func latenciesMS(ts []jobTiming) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = ms(t.latency)
	}
	return out
}

// runFloorPass runs the three phases: (A) the jobs from one closed-loop
// client, (B) as many again from P clients, against one loopback daemon
// with default options; (C) the 32-cell grid through the coordinator over
// P daemons, repeatedly, and once offline. It then checks the digest
// identities: sampled jobs of A against an offline run of the same spec,
// and the first grid three ways, offline = daemon = fleet.
func runFloorPass(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer) (floorPass, error) {
	var pass floorPass
	sizes := floorSizesFor(cfg)
	// Set-up, several times: the phase-A/B daemon, probed and warmed
	// with one job of each workload, plus the phase-C rig, warmed with one
	// grid.
	var rig *fleetRig
	var d *daemon
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for rep := 0; rep < setupReps(cfg); rep++ {
		start := time.Now()
		var err error
		if d, err = startDaemon(ctx, 0); err != nil {
			return pass, err
		}
		cl := client.New(d.url, hc)
		err = cl.Ready(ctx)
		for i, name := range experiments.AllWorkloads() {
			if err == nil {
				warm := oneCellJob(floorJobKind{name, sched.PolicyDefault}, sweep.DeriveSeed(cfg.Seed, 900+i))
				_, err = runJob(ctx, cl, warm, nil, "")
			}
		}
		if err != nil {
			_ = d.stop(ctx)
			return pass, fmt.Errorf("warming the daemon: %w", err)
		}
		if rig, _, err = setupFleetOnce(ctx, floorGrid(cfg, rep), 0, tr != nil, cfg.Seed, rep); err != nil {
			_ = d.stop(ctx)
			return pass, err
		}
		pass.setups = append(pass.setups, time.Since(start).Seconds())
		if rep < setupReps(cfg)-1 {
			_ = d.stop(ctx)
			rig.stop(ctx)
		}
	}
	pass.daemon, pass.rig = d, rig
	runtime.GC()

	pass.serial, pass.serialWall = closedLoop(ctx, cfg, d, hc, 0, sizes.jobs, 1, rec, tr, "A")
	pass.parallel, pass.parWall = closedLoop(ctx, cfg, d, hc, sizes.jobs, sizes.jobs, parallelism(), rec, tr, "B")

	var fleetDigest string
	for rep := 0; rep < sizes.fleetReps; rep++ {
		spec := floorGrid(cfg, rep)
		sp := tr.begin(-1, "fleet.run", spec.ID)
		start := time.Now()
		payload, data, err := rig.coord.Run(ctx, spec)
		elapsed := time.Since(start)
		tr.end(sp)
		rec.attempt(1)
		if err != nil {
			rec.fail("service-floor: fleet grid %d: %v", rep, err)
			continue
		}
		for _, t := range payload.Tasks {
			if t.Error != "" {
				rec.fail("service-floor: fleet grid %d cell %s: %s", rep, t.Name, t.Error)
			}
		}
		pass.gridWalls = append(pass.gridWalls, elapsed.Seconds())
		pass.gridWall += elapsed
		if rep == 0 {
			fleetDigest = payload.Digest
			pass.gridBytes = len(data)
		}
	}

	// Identity checks, off the clock.
	spec0 := floorGrid(cfg, 0)
	offline, err := runOffline(ctx, spec0, parallelism())
	if err != nil {
		return pass, err
	}
	pass.offline = offline.wall
	direct, err := runJob(ctx, client.New(d.url, hc), spec0, nil, "")
	if err != nil {
		return pass, err
	}
	if cfg.forceMismatch {
		offline.digest += "-forced"
	}
	rec.check(offline.digest == direct.digest && direct.digest == fleetDigest,
		"service-floor: 32-cell grid digests differ: offline %s, daemon %s, fleet %s", offline.digest, direct.digest, fleetDigest)
	rec.digest("grid", fleetDigest)

	// Every 50th job of phase A against an offline run of its spec.
	for i := 0; i < len(pass.serial); i += 50 {
		want, err := runOffline(ctx, floorJob(cfg, i), 1)
		if err != nil {
			return pass, err
		}
		rec.check(want.digest == pass.serial[i].digest, "service-floor: job %d: offline digest %s, daemon digest %s", i, want.digest, pass.serial[i].digest)
		if i == 0 {
			rec.digest("job0", want.digest)
		}
	}
	return pass, nil
}

// stop shuts the pass's daemons down.
func (p floorPass) stop(ctx context.Context) {
	if p.daemon != nil {
		_ = p.daemon.stop(ctx)
	}
	if p.rig != nil {
		p.rig.stop(ctx)
	}
}

// runServiceFloor is the whole workload.
func runServiceFloor(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer) error {
	e2e, err := runFloorPass(ctx, cfg, rec, nil)
	e2e.stop(ctx)
	if err != nil {
		return err
	}
	lat := latenciesMS(e2e.serial)
	q1, p50, q3 := quartiles(lat)
	rec.put(metricValue{Name: "job_latency_p50_ms", Value: p50, N: len(lat), Q1: q1, Q3: q3})
	rec.put(metricValue{Name: "job_latency_p90_ms", Value: percentile(lat, 0.90), N: len(lat)})
	rec.metric("jobs_per_s", float64(len(e2e.parallel))/e2e.parWall.Seconds())
	gridMS := make([]float64, len(e2e.gridWalls))
	for i, w := range e2e.gridWalls {
		gridMS[i] = 1000 * w
	}
	rec.dist("fleet_grid_p50_ms", gridMS)
	if tr == nil {
		rec.metric("setup_s", median(e2e.setups))
		rec.metric("timed_wall_s", (e2e.serialWall + e2e.parWall + e2e.gridWall).Seconds())
		rec.metric("peak_rss_mb", peakRSSMB())
		return nil
	}
	runtime.GC()
	return traceServiceFloor(ctx, cfg, rec, tr, e2e)
}
