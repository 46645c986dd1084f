// Package server is the simulation-job service: a long-running daemon
// core that accepts policy x topology x workload sweep jobs over an
// HTTP/JSON API, executes them on the existing deterministic sweep
// worker pool, streams progress as NDJSON, and exposes a
// Prometheus-format metrics endpoint.
//
// The package preserves the repository's determinism contract across
// the network boundary: a job's result payload is a pure function of
// its normalized JobSpec. Seeds derive from the spec (sweep.DeriveSeed),
// never from arrival order; task results are reported in grid order
// regardless of completion order; and nothing wall-clock-derived enters
// the payload (wall time is confined to event timestamps and latency
// metrics, read from an injected Clock). A differential test submits the
// same grid at server concurrency 1 and N and requires byte-identical
// payloads, the same guarantee the sweep runner and the parallel engine
// make offline.
//
// Robustness is admission-controlled: a bounded queue plus a bounded
// outstanding-token pool reject overload with 429 + Retry-After instead
// of queueing unboundedly, and graceful shutdown stops admission and
// drains in-flight jobs under the caller's deadline. With a spool, every
// admitted job is persisted as a replayable spec file until it settles,
// so a restarted server re-admits whatever a drain or a kill left
// unfinished, and each completed grid cell is spooled once as an
// immutable record keyed by what it computes (cells.go), so a job cut
// by a drain or a kill resumes where it stopped.
package server

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sim"
	"threadcluster/internal/sweep"
)

// Options configure a Server. The zero value is not usable: a Clock is
// required (the one wall-time source; see Clock), everything else
// defaults sensibly in New.
type Options struct {
	// Clock supplies wall time for event timestamps, latency metrics and
	// the Retry-After estimator. Required: cmd/tcsimd passes the system
	// clock, tests pass a FakeClock. Never enters result payloads.
	Clock Clock

	// Registry receives the server's operational series; scraping
	// /metrics renders it. Defaults to a fresh registry.
	Registry *metrics.Registry

	// QueueDepth bounds the number of queued (not yet running) jobs.
	// Default 64.
	QueueDepth int

	// MaxJobCost is the per-job token budget: a spec whose Cost exceeds
	// it is rejected as invalid (400). Default 4,000,000 tokens
	// (grid cells x total rounds).
	MaxJobCost int64

	// MaxQueuedCost bounds the outstanding (queued + running) token
	// pool; admissions beyond it are rejected 429. Default 8x MaxJobCost.
	MaxQueuedCost int64

	// JobWorkers is the number of concurrently executing jobs.
	// Default 1. Results are byte-identical for any value.
	JobWorkers int

	// TaskWorkers is the default per-job sweep pool size (a spec's
	// Workers field overrides it). 0 means GOMAXPROCS. Results are
	// byte-identical for any value.
	TaskWorkers int

	// SpoolDir, when set, persists work across restarts: each admitted
	// job's spec as "<seq>-<id>.json" from admission until it settles
	// (persist.go), and every completed grid cell as a write-once record
	// under "cells/" (cells.go). Start re-admits the spooled specs in seq
	// order; every job looks its cells up before running them, so a job
	// cut down by a drain or a kill resumes where it stopped. Corrupt
	// files are quarantined (see SpoolWarnings), never fatal.
	SpoolDir string
}

// Server owns the job table, the admission queue and the worker pool.
// Create with New, start with Start, serve Handler over HTTP, stop with
// Shutdown.
type Server struct {
	opt   Options
	clock Clock
	reg   *metrics.Registry
	queue *jobQueue

	mu        sync.Mutex
	jobs      map[string]*job
	bySeq     []*job
	nextSeq   uint64
	counts    map[JobState]int // jobs in each state, kept by setState: server_jobs{state}, server_jobs_running, WorkerHealth.Running
	draining  bool
	started   bool
	ewmaSec   float64          // smoothed wall seconds per job, for Retry-After
	simTotals metrics.Snapshot // merged sim series of every completed job, accumulated in place; /metrics appends a clone
	shapes    shapeTable       // the payload shapes done jobs keep, interned (its own lock)
	keptBytes int              // each shape's text once plus each done job's values: server_result_bytes

	baseCtx   context.Context
	stopWork  context.CancelFunc
	wg        sync.WaitGroup
	beforeJob func(*job)      // test hook: runs in the worker before a job executes
	afterTask func(*job, int) // test hook: runs after a grid cell completes

	spoolWarnings []error // quarantined files and spool write failures

	mJobsAdmitted     *metrics.Counter
	mJobsReadmitted   *metrics.Counter
	mSpoolQuarantined *metrics.Counter
	mRecordsWritten   *metrics.Counter
	mRecordsReused    *metrics.Counter
}

// New validates opt, fills defaults and builds a stopped server; Start
// launches the workers.
func New(opt Options) (*Server, error) {
	if opt.Clock == nil {
		return nil, fmt.Errorf("server: %w: Options.Clock is required (inject the system clock from cmd, a FakeClock from tests)", errs.ErrBadConfig)
	}
	if opt.Registry == nil {
		opt.Registry = metrics.NewRegistry()
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = 64
	}
	if opt.MaxJobCost <= 0 {
		opt.MaxJobCost = 4_000_000
	}
	if opt.MaxQueuedCost <= 0 {
		opt.MaxQueuedCost = 8 * opt.MaxJobCost
	}
	if opt.JobWorkers <= 0 {
		opt.JobWorkers = 1
	}
	s := &Server{
		opt:    opt,
		clock:  opt.Clock,
		reg:    opt.Registry,
		queue:  newJobQueue(opt.QueueDepth, opt.MaxQueuedCost),
		jobs:   make(map[string]*job),
		counts: make(map[JobState]int),
	}
	s.mJobsAdmitted = s.reg.Counter("server_jobs_admitted_total", nil)
	s.mJobsReadmitted = s.reg.Counter("server_jobs_readmitted_total", nil)
	s.mSpoolQuarantined = s.reg.Counter("server_spool_quarantined_total", nil)
	s.mRecordsWritten = s.reg.Counter("server_cell_records_written_total", nil)
	s.mRecordsReused = s.reg.Counter("server_cell_records_reused_total", nil)
	s.reg.RegisterGaugeFunc("server_queue_depth", nil, func() float64 {
		n, _ := s.queue.stats()
		return float64(n)
	})
	s.reg.RegisterGaugeFunc("server_queue_tokens", nil, func() float64 {
		_, tok := s.queue.stats()
		return float64(tok)
	})
	s.reg.RegisterGaugeFunc("server_jobs_running", nil, func() float64 {
		return float64(s.count(StateRunning))
	})
	s.reg.RegisterGaugeFunc("server_result_bytes", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.keptBytes)
	})
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		s.reg.RegisterGaugeFunc("server_jobs", metrics.Labels{"state": string(st)}, func() float64 {
			return float64(s.count(st))
		})
	}
	return s, nil
}

// setState moves j to st and the per-state counts with it; a job's state
// changes nowhere else. Caller holds s.mu.
func (s *Server) setState(j *job, st JobState) {
	if j.state != "" {
		s.counts[j.state]--
	}
	j.state = st
	s.counts[st]++
}

// count reports how many jobs are in state st.
func (s *Server) count(st JobState) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[st]
}

// Start launches the worker pool and re-admits any spooled job specs, in
// spool order. ctx is the server's base context: cancelling it stops the
// workers abruptly (use Shutdown for a graceful drain). Start may be
// called once.
func (s *Server) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("server: %w: already started", errs.ErrAlreadyInstalled)
	}
	s.started = true
	workCtx, cancel := context.WithCancel(ctx)
	s.baseCtx = workCtx
	s.stopWork = cancel
	s.mu.Unlock()

	if err := s.loadSpool(); err != nil {
		return err
	}
	for i := 0; i < s.opt.JobWorkers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			var sc payloadScratch
			for {
				j := s.queue.pop(workCtx)
				if j == nil {
					return
				}
				s.runJob(workCtx, j, &sc)
			}
		}()
	}
	return nil
}

// Submit validates, normalizes and admits spec, returning the queued
// job's status. Rejections: invalid spec or over-budget job (400 via
// errs.ErrBadConfig), duplicate ID (409), draining server (503), full
// queue or exhausted token pool (429).
func (s *Server) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	_ = ctx // admission is non-blocking; ctx is part of the contract (ctx-first API)
	norm, err := spec.Normalize()
	if err != nil {
		s.reject("invalid")
		return JobStatus{}, err
	}
	cost := norm.Cost()
	if cost > s.opt.MaxJobCost {
		s.reject("over_budget")
		return JobStatus{}, fmt.Errorf("server: %w: job cost %d exceeds per-job budget %d (shrink the grid or rounds)",
			errs.ErrBadConfig, cost, s.opt.MaxJobCost)
	}
	return s.admit(norm, cost, nil)
}

// admit queues one validated job. A submitted job (from == nil) takes
// the next seq and, with a spool, has its spool file written before it
// reaches the queue; a refused push removes the file again. A job
// re-admitted from the spool keeps the seq and file it was read from,
// and a refused push leaves that file for the next start.
func (s *Server) admit(norm JobSpec, cost int64, from *spoolFile) (JobStatus, error) {
	s.mu.Lock()
	if s.draining || !s.started {
		s.mu.Unlock()
		s.reject("draining")
		return JobStatus{}, fmt.Errorf("server: %w: not accepting jobs", errs.ErrUnavailable)
	}
	seq := s.nextSeq
	if from != nil {
		seq = from.seq // below nextSeq: loadSpool resumed it past every file
	}
	if norm.ID == "" {
		norm.ID = fmt.Sprintf("job-%d", seq)
	}
	if _, ok := s.jobs[norm.ID]; ok {
		s.mu.Unlock()
		s.reject("conflict")
		return JobStatus{}, fmt.Errorf("server: %w: %q", errs.ErrJobExists, norm.ID)
	}
	j := &job{
		spec:   norm,
		seq:    seq,
		cost:   cost,
		events: newEventLog(),
	}
	s.setState(j, StateQueued)
	s.nextSeq = max(s.nextSeq, seq+1)
	s.jobs[norm.ID] = j
	s.bySeq = append(s.bySeq, j)
	// The admitted status is taken before the push: once the job is on the
	// queue a worker may pop it and mark it running before Submit returns.
	admitted := j.status()
	s.mu.Unlock()

	// The file goes down before the push, so the settle that removes it
	// always comes after it.
	spooled := s.opt.SpoolDir != "" && from == nil
	if spooled {
		if err := writeJSONAtomic(s.spoolPath(j), norm); err != nil {
			s.warn(fmt.Errorf("spooling job %q: %w", norm.ID, err))
		}
	}
	// The queued event goes in before the push: once the job is on the
	// queue a worker may pop it and append "running" at any moment. If the
	// push is refused the log dies with the job.
	j.events.append(Event{Time: s.clock.Now(), Type: EventQueued, Job: norm.ID})
	if err := s.queue.push(j); err != nil {
		s.mu.Lock()
		s.counts[j.state]--
		delete(s.jobs, norm.ID)
		for i, it := range s.bySeq {
			if it == j {
				s.bySeq = append(s.bySeq[:i], s.bySeq[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		if spooled {
			s.unspool(j)
		}
		if hint := s.retryAfterSeconds(); hint > 0 {
			err = &RetryableError{Err: err, RetryAfterSeconds: hint}
		}
		s.reject("overloaded")
		return JobStatus{}, err
	}
	s.mJobsAdmitted.Inc()
	return admitted, nil
}

// RetryableError decorates an overload rejection with the server's
// backoff hint; the HTTP layer renders it as a Retry-After header.
type RetryableError struct {
	Err               error
	RetryAfterSeconds int
}

func (e *RetryableError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying sentinel chain (errs.ErrOverloaded).
func (e *RetryableError) Unwrap() error { return e.Err }

// retryAfterSeconds estimates when admission is worth retrying: smoothed
// job duration times queue length over worker count, clamped to [1, 600].
// Before any job has finished it falls back to one second per queued job.
func (s *Server) retryAfterSeconds() int {
	queued, _ := s.queue.stats()
	s.mu.Lock()
	ewma := s.ewmaSec
	s.mu.Unlock()
	var est float64
	if ewma > 0 {
		est = ewma * float64(queued+1) / float64(s.opt.JobWorkers)
	} else {
		est = float64(queued + 1)
	}
	switch {
	case est < 1:
		return 1
	case est > 600:
		return 600
	default:
		return int(est)
	}
}

func (s *Server) reject(reason string) {
	s.reg.Counter("server_jobs_rejected_total", metrics.Labels{"reason": reason}).Inc()
}

// Status returns a job's current status.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("server: %w: %q", errs.ErrJobNotFound, id)
	}
	return j.status(), nil
}

// Jobs lists every job the server knows, in admission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.bySeq))
	for _, j := range s.bySeq {
		out = append(out, j.status())
	}
	return out
}

// Result returns the completed job's canonical payload bytes — the exact
// bytes every replica would serve for this spec. The job keeps only its
// interned shape and its values; the payload is written from them per
// call, outside the server lock.
func (s *Server) Result(id string) ([]byte, error) {
	k, digest, err := s.kept(id)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, k.size(digest)))
	_ = k.writeTo(buf, digest) // a bytes.Buffer write never fails
	return buf.Bytes(), nil
}

// kept returns what a done job keeps of its payload, and its digest.
// Both are immutable once the job is done.
func (s *Server) kept(id string) (keptPayload, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return keptPayload{}, "", fmt.Errorf("server: %w: %q", errs.ErrJobNotFound, id)
	}
	if j.state != StateDone {
		return keptPayload{}, "", fmt.Errorf("server: %w: %q is %s", errs.ErrJobNotDone, id, j.state)
	}
	return j.kept, j.digest, nil
}

// Cancel cancels a queued or running job. A queued job settles
// immediately; a running job's context is cancelled and it settles when
// the sweep unwinds. Cancelling a terminal job is a conflict.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("server: %w: %q", errs.ErrJobNotFound, id)
	}
	if j.state.Final() {
		st := j.status()
		s.mu.Unlock()
		return st, fmt.Errorf("server: %w: %q is %s", errs.ErrJobFinal, id, j.state)
	}
	j.cancelled = true
	cancel := j.cancel
	s.mu.Unlock()

	if s.queue.remove(j) {
		// Still queued: settle here.
		s.settle(j, StateCanceled, fmt.Errorf("server: canceled while queued"))
		return s.Status(id)
	}
	if cancel != nil {
		cancel() // running: the worker settles it
	}
	return s.Status(id)
}

// Subscribe streams a job's events to fn, its whole history from Seq 0
// first, until the job reaches a terminal event, ctx ends, or fn errors.
func (s *Server) Subscribe(ctx context.Context, id string, fn func(Event) error) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: %w: %q", errs.ErrJobNotFound, id)
	}
	return j.events.subscribe(ctx, fn)
}

// Registry exposes the server's metrics registry (the one /metrics
// renders), so a daemon can register additional collectors.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// SimTotals returns a copy of the merged simulation snapshot accumulated
// across every completed job; /metrics renders it after the server
// registry so one scrape carries both the serving series and the sim
// series. The copy is the caller's: later jobs accumulate into the
// server's own snapshot in place.
func (s *Server) SimTotals() metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simTotals.Clone()
}

// runJob executes one admitted job on the sweep pool and settles it. sc
// is the calling worker's scratch for the job's payload.
func (s *Server) runJob(ctx context.Context, j *job, sc *payloadScratch) {
	if s.beforeJob != nil {
		s.beforeJob(j)
	}

	grid, cells, tasks, err := j.spec.compile()
	if err != nil {
		s.settle(j, StateFailed, fmt.Errorf("server: compiling job %q: %w", j.spec.ID, err))
		return
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()

	s.mu.Lock()
	if j.cancelled { // cancel raced admission-to-start
		s.mu.Unlock()
		s.settle(j, StateCanceled, fmt.Errorf("server: canceled before start"))
		return
	}
	s.setState(j, StateRunning)
	j.cancel = cancel
	j.tasksTotal = len(tasks)
	s.mu.Unlock()

	started := s.clock.Now()
	j.events.append(Event{Time: started, Type: EventRunning, Job: j.spec.ID, TasksTotal: len(tasks)})

	// Wrap each task to emit a progress event at completion. Events fire
	// in completion order (operational stream); the payload below is
	// assembled in grid order (deterministic result).
	wrapped := make([]sweep.Task, len(tasks))
	for i, t := range tasks {
		run := func(tctx context.Context, seed int64) (metrics.Snapshot, error) {
			snap, err := s.runCell(tctx, grid, cells[i], t, seed)
			if err == nil {
				s.taskDone(j, i, t.Name, snap)
			}
			return snap, err
		}
		wrapped[i] = sweep.Task{Name: t.Name, Seed: t.Seed, Run: run}
	}

	workers := j.spec.Workers
	if workers == 0 {
		workers = s.opt.TaskWorkers
	}
	results, runErr := sweep.Run(jctx, wrapped, workers)

	s.mu.Lock()
	elapsed := s.clock.Now().Sub(started).Seconds()
	if s.ewmaSec == 0 {
		s.ewmaSec = elapsed
	} else {
		s.ewmaSec = 0.7*s.ewmaSec + 0.3*elapsed
	}
	wasCancelled := j.cancelled
	j.cut = j.cut || ctx.Err() != nil // the server stopped under the job: resume it at the next start
	s.mu.Unlock()

	if runErr != nil {
		if wasCancelled || jctx.Err() != nil {
			s.settle(j, StateCanceled, fmt.Errorf("server: canceled while running: %w", runErr))
		} else {
			s.settle(j, StateFailed, runErr)
		}
		return
	}

	payload, compact, err := EncodeResultPayload(sc.compact[:0], cells, results, sweep.Merged(results))
	if err != nil {
		s.settle(j, StateFailed, err)
		return
	}
	sc.compact = compact
	// The job keeps its payload for as long as the server runs: the shape
	// it shares with every job of its grid shape, and its own values.
	sh, added, err := s.shapes.intern(sc, compact, payload.Digest)
	if err != nil {
		s.settle(j, StateFailed, err)
		return
	}
	vals := string(sc.vals)
	s.mu.Lock()
	if added {
		s.keptBytes += len(sh.text)
	}
	s.keptBytes += len(vals)
	j.kept = keptPayload{shape: sh, vals: vals}
	j.digest = payload.Digest
	s.simTotals.Accumulate(payload.Merged)
	s.mu.Unlock()
	s.settle(j, StateDone, nil)
}

// runCell computes one cell of grid. With a spool it first looks the
// cell's record up: a hit replays it, a miss runs the cell and records
// it.
func (s *Server) runCell(ctx context.Context, grid experiments.GridSpec, cell experiments.GridCell, t sweep.Task, seed int64) (metrics.Snapshot, error) {
	if s.opt.SpoolDir == "" {
		return t.Run(ctx, seed)
	}
	snap, ok, warn := LookupCell(s.opt.SpoolDir, grid, cell)
	if warn != nil {
		s.mSpoolQuarantined.Inc()
		s.warn(warn)
	}
	if ok {
		s.mRecordsReused.Inc()
		return snap, nil
	}
	snap, err := t.Run(ctx, seed)
	if err != nil {
		return snap, err
	}
	if err := WriteCell(s.opt.SpoolDir, grid, cell, snap); err != nil {
		s.warn(err) // a lost record costs a recomputation, never the job
	} else {
		s.mRecordsWritten.Inc()
	}
	return snap, nil
}

// taskDone counts one completed grid cell and emits its progress event.
func (s *Server) taskDone(j *job, idx int, name string, snap metrics.Snapshot) {
	s.mu.Lock()
	j.tasksDone++
	done, total := j.tasksDone, j.tasksTotal
	s.mu.Unlock()
	if s.afterTask != nil {
		s.afterTask(j, idx)
	}
	s.reg.Counter("server_tasks_completed_total", nil).Inc()
	j.events.append(Event{
		Time: s.clock.Now(), Type: EventTask, Job: j.spec.ID, Task: name,
		TasksDone: done, TasksTotal: total,
		Cycles: snap.Counter(sim.MetricPMUCycles, nil),
		Insts:  snap.Counter(sim.MetricPMUInsts, nil),
		Ops:    snap.Counter(sim.MetricOps, nil),
	})
}

// settle moves a job to a terminal state, emits the terminal event,
// closes the stream and releases its tokens. Idempotent per job: only
// the first settle wins.
func (s *Server) settle(j *job, state JobState, cause error) {
	s.mu.Lock()
	if j.state.Final() {
		s.mu.Unlock()
		return
	}
	s.setState(j, state)
	j.cancel = nil // the job's context is done with; do not keep it for the server's life
	if state != StateDone {
		j.err = cause
	}
	done, total := j.tasksDone, j.tasksTotal
	digest := j.digest
	// A running job cut down by a drain or a server stop keeps its spool
	// file, so the next start re-admits it; any other settlement removes
	// the file.
	retire := s.opt.SpoolDir != "" && !(state == StateCanceled && j.cut)
	s.mu.Unlock()

	if retire {
		s.unspool(j)
	}
	s.queue.release(j.cost)
	s.reg.Counter("server_jobs_total", metrics.Labels{"state": string(state)}).Inc()

	ev := Event{Time: s.clock.Now(), Job: j.spec.ID, TasksDone: done, TasksTotal: total}
	switch state {
	case StateDone:
		ev.Type = EventDone
		ev.Digest = digest
	case StateCanceled:
		ev.Type = EventCanceled
	default:
		ev.Type = EventFailed
	}
	if cause != nil && state != StateDone {
		ev.Error = cause.Error()
	}
	j.events.append(ev)
	j.events.closeLog()
}

// Shutdown gracefully stops the server: admission closes (readyz and
// POSTs turn 503), queued-but-unstarted jobs are left queued — with a
// spool, their files stay on disk for the next start — and in-flight
// jobs drain until ctx's deadline, at which point they are cancelled.
// Streams of drained-away jobs end with a shutdown event. Returns
// ctx.Err() when the drain was cut short.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return fmt.Errorf("server: %w: not started", errs.ErrUnavailable)
	}
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if alreadyDraining {
		return fmt.Errorf("server: %w: already shutting down", errs.ErrUnavailable)
	}

	// Close admission. Still-queued jobs leave this process queued; with
	// a spool their files stay for the next start.
	for _, j := range s.queue.drain() {
		s.queue.release(j.cost)
		j.events.append(Event{Time: s.clock.Now(), Type: EventShutdown, Job: j.spec.ID})
		j.events.closeLog()
	}

	// Wait for in-flight jobs; cancel them when the deadline strikes.
	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var cut error
	select {
	case <-workersDone:
	case <-ctx.Done():
		cut = ctx.Err()
		s.cancelRunning()
		<-workersDone
	}

	// End any streams still open (jobs that settled already closed
	// theirs; this covers subscribers of jobs that never settled).
	s.mu.Lock()
	all := append([]*job(nil), s.bySeq...)
	s.mu.Unlock()
	for _, j := range all {
		j.events.closeLog()
	}
	s.stopWork()
	return cut
}

// cancelRunning cancels every running job's context. These jobs are cut
// by the drain deadline, not abandoned by their submitter, so they keep
// their spool files: the next start resumes them.
func (s *Server) cancelRunning() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.bySeq {
		if j.state == StateRunning {
			j.cancelled = true
			j.cut = true
			if j.cancel != nil {
				j.cancel()
			}
		}
	}
}

// Draining reports whether admission has been closed by Shutdown.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || !s.started
}

// WorkerHealth is the wire form of GET /v1/worker: the capacity signal a
// fleet coordinator reads before leasing shards to this daemon. Unlike
// /readyz it always answers 200 — "draining" is data here, not an error —
// so one probe distinguishes a dying worker from a dead one.
type WorkerHealth struct {
	// Draining reports that admission is closed (shutdown in progress
	// or server never started); a coordinator stops leasing to it.
	Draining bool `json:"draining"`
	// Running and Queued count jobs in those states.
	Running int `json:"running"`
	Queued  int `json:"queued"`
	// OutstandingCost is the admission token pool currently reserved
	// (queued + running work).
	OutstandingCost int64 `json:"outstanding_cost"`
	// JobWorkers is the daemon's concurrent-job capacity.
	JobWorkers int `json:"job_workers"`
}

// WorkerHealth snapshots the server's capacity signal.
func (s *Server) WorkerHealth() WorkerHealth {
	queued, tokens := s.queue.stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return WorkerHealth{
		Draining:        s.draining || !s.started,
		Running:         s.counts[StateRunning],
		Queued:          queued,
		OutstandingCost: tokens,
		JobWorkers:      s.opt.JobWorkers,
	}
}
