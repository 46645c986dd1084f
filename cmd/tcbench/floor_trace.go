package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// traceServiceFloor is the traced pass of service-floor: the three phases
// again with a span around every client call, each phase-A job's own
// queued/running/done event timestamps joined in as child spans, the
// coordinator's and daemons' streams joined into shard spans, and the
// server's, client's and experiments' public functions timed directly.
func traceServiceFloor(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer, e2e floorPass) error {
	traced, err := runFloorPass(ctx, cfg, rec, tr)
	defer traced.stop(ctx)
	if err != nil {
		return err
	}
	untraced := e2e.serialWall + e2e.parWall + e2e.gridWall
	rec.metric("trace.overhead_pct", 100*((traced.serialWall+traced.parWall+traced.gridWall).Seconds()/untraced.Seconds()-1))

	// server and client, from each phase-A job's event log.
	var queueWait, run, doneLag, submit, fetch, bytes, events []float64
	var runTotal, latencyTotal time.Duration
	for _, jt := range traced.serial {
		var queued, running, done time.Time
		n := 0
		err := traced.daemon.srv.Subscribe(ctx, jt.id, func(ev server.Event) error {
			n++
			switch ev.Type {
			case server.EventQueued:
				queued = ev.Time
			case server.EventRunning:
				running = ev.Time
			case server.EventDone:
				done = ev.Time
			}
			return nil
		})
		if err != nil {
			return err
		}
		ref := "service-floor/" + jt.id
		tr.add(jt.span, "server.queue", ref, queued, running)
		tr.add(jt.span, "server.run", ref, running, done)
		queueWait = append(queueWait, ms(running.Sub(queued)))
		run = append(run, ms(done.Sub(running)))
		doneLag = append(doneLag, ms(jt.doneSeen.Sub(done)))
		submit = append(submit, ms(jt.submit))
		fetch = append(fetch, ms(jt.fetch))
		bytes = append(bytes, float64(jt.payloadBytes))
		events = append(events, float64(n))
		runTotal += done.Sub(running)
		latencyTotal += jt.latency
	}
	rejected := 0
	for _, jt := range append(append([]jobTiming(nil), traced.serial...), traced.parallel...) {
		rejected += jt.rejected
	}
	rec.metric("server.submit_ms", mean(submit))
	rec.metric("server.queue_wait_ms", mean(queueWait))
	rec.metric("server.run_ms", mean(run))
	rec.metric("server.payload_bytes", mean(bytes))
	rec.metric("server.events_per_job", mean(events))
	rec.metric("server.rejected", float64(rejected))
	rec.metric("server.job_latency_p99_ms", percentile(latenciesMS(e2e.serial), 0.99))
	rec.metric("server.overhead_share", 1-runTotal.Seconds()/latencyTotal.Seconds())
	rec.metric("client.done_lag_ms", mean(doneLag))
	rec.metric("client.result_fetch_ms", mean(fetch))

	// Direct calls, one job of every kind of the mix.
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	cl := client.New(traced.daemon.url, hc)
	var normalize, build, decode []float64
	for i := 0; i < len(floorMix) && i < len(traced.serial); i++ {
		spec := floorJob(cfg, i)
		start := time.Now()
		_, err := spec.Normalize()
		normalize = append(normalize, us(time.Since(start)))
		if err != nil {
			return err
		}
		off, err := runOffline(ctx, spec, 1)
		if err != nil {
			return err
		}
		start = time.Now()
		payload, err := server.BuildResultPayload(off.cells, off.results, off.merged)
		if err != nil {
			return err
		}
		if _, err := payload.Marshal(); err != nil {
			return err
		}
		build = append(build, us(time.Since(start)))

		data, err := cl.Result(ctx, traced.serial[i].id)
		if err != nil {
			return err
		}
		start = time.Now()
		var decoded server.ResultPayload
		if err := json.Unmarshal(data, &decoded); err != nil {
			return fmt.Errorf("decoding job %s payload: %w", traced.serial[i].id, err)
		}
		decode = append(decode, us(time.Since(start)))
	}
	rec.metric("server.normalize_us", mean(normalize))
	rec.metric("server.payload_build_us", mean(build))
	rec.metric("client.payload_decode_us", mean(decode))

	// The 32-cell grid: compile, merge, encoding size, workload builds.
	norm0, err := floorGrid(cfg, 0).Normalize()
	if err != nil {
		return err
	}
	grid0, err := norm0.Grid()
	if err != nil {
		return err
	}
	start := time.Now()
	cells, tasks, err := grid0.Tasks()
	rec.metric("experiments.compile_ms", ms(time.Since(start)))
	if err != nil {
		return err
	}
	results, err := sweep.Run(ctx, tasks, parallelism())
	if err != nil {
		return err
	}
	const mergeReps = 20
	start = time.Now()
	for i := 0; i < mergeReps; i++ {
		sweep.Merged(results)
	}
	rec.metric("metrics.merge_us", us(time.Since(start))/mergeReps)
	rec.metric("metrics.json_bytes_per_cell", float64(traced.gridBytes)/float64(len(cells)))
	var builds []float64
	for _, name := range experiments.AllWorkloads() {
		d, err := timeWorkloadBuild(name, cfg.Seed)
		if err != nil {
			return err
		}
		builds = append(builds, ms(d))
	}
	rec.metric("workloads.build_ms", mean(builds))

	st, err := analyzeFleet(ctx, traced.rig, tr)
	if err != nil {
		return err
	}
	st.record(rec, cells, median(traced.gridWalls)/traced.offline.Seconds())
	if cfg.SpansPath != "" {
		return tr.write(cfg.SpansPath)
	}
	return nil
}
