package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// starveRounds is how many consecutive loop ticks with work pending,
// nothing in flight and no live worker the coordinator tolerates
// (probing every tick) before declaring the fleet gone.
const starveRounds = 10

// shardState tracks one shard through the dispatch loop.
type shardState int

const (
	shardPending shardState = iota
	shardRunning
	shardDone
)

// shardRun is the coordinator-side state of one virtual-ring shard.
type shardRun struct {
	shard     Shard
	remaining []int // cells still to compute (record hits filtered out)

	state     shardState
	attempts  int             // dispatches, lifetime
	failures  int             // failed completions, lifetime
	inFlight  int             // outstanding attempts (placement + duplicates)
	dups      int             // duplicates dispatched since the shard left the pool
	worker    string          // the newest attempt's worker while running
	started   time.Time       // the newest attempt's dispatch time
	notBefore time.Time       // retry backoff gate while pending
	tried     map[string]bool // workers that failed or stalled on it, for placement
}

func (sh *shardRun) name() string { return fmt.Sprintf("s%d", sh.shard.Slot) }

// completion is one attempt's outcome, delivered on the run's channel.
type completion struct {
	slot   int
	worker string
	tasks  []server.TaskResult
	err    error
}

// runState is the per-job mutable state of one Run call. Only the
// orchestrator goroutine touches it; attempt goroutines communicate
// exclusively through the completions channel.
type runState struct {
	c       *Coordinator
	ctx     context.Context // cancelled when Run returns; bounds every attempt
	norm    server.JobSpec
	grid    experiments.GridSpec
	cells   []experiments.GridCell
	results []sweep.Result
	runs    []*shardRun
	bySlot  map[int]*shardRun
	comps   chan completion
	sink    *eventSink

	doneShards int
	cellsDone  int
}

// Run executes one grid job across the fleet and returns the merged
// payload, its canonical bytes (exactly what tcsimd's result endpoint
// would serve) and any error. The payload and digest are byte-identical
// to an offline experiments.RunGrid of the same spec regardless of
// fleet size, worker deaths, retries, duplicate attempts or a
// previous coordinator crash resumed from the spool's cell records.
//
// The spec must not be shard-scoped already (Cells set) — sharding is
// the coordinator's job. An empty ID gets a deterministic spec-derived
// one.
func (c *Coordinator) Run(ctx context.Context, spec server.JobSpec) (server.ResultPayload, []byte, error) {
	c.runGate.Lock()
	defer c.runGate.Unlock()

	norm, err := spec.Normalize()
	if err != nil {
		return server.ResultPayload{}, nil, err
	}
	if len(norm.Cells) > 0 {
		return server.ResultPayload{}, nil, fmt.Errorf(
			"fleet: %w: spec is already shard-scoped (cells set); submit the whole grid", errs.ErrBadConfig)
	}
	if norm.ID == "" {
		norm.ID = deriveJobID(norm)
	}
	grid, err := norm.Grid()
	if err != nil {
		return server.ResultPayload{}, nil, err
	}
	cells := grid.Cells()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	st := &runState{
		c:       c,
		ctx:     runCtx,
		norm:    norm,
		grid:    grid,
		cells:   cells,
		results: make([]sweep.Result, len(cells)),
		bySlot:  make(map[int]*shardRun),
		sink:    newEventSink(c.opt.Events, c.opt.Clock, norm.ID),
	}

	// Resume: every cell with a record goes straight into its grid
	// position.
	hit := make([]bool, len(cells))
	if c.opt.SpoolDir != "" {
		for idx, cell := range cells {
			snap, ok, warn := server.LookupCell(c.opt.SpoolDir, grid, cell)
			if warn != nil {
				c.warn(fmt.Errorf("fleet: %w", warn))
			}
			if ok {
				hit[idx] = true
				st.results[idx] = sweep.Result{Name: cell.Name(), Seed: cell.Seed, Metrics: snap}
				st.cellsDone++
			}
		}
	}

	// Plan: the ring partition, minus the recorded cells.
	for _, sh := range Partition(cells, c.opt.VirtualShards) {
		r := &shardRun{shard: sh, tried: make(map[string]bool)}
		for _, idx := range sh.Indices {
			if !hit[idx] {
				r.remaining = append(r.remaining, idx)
			}
		}
		if len(r.remaining) == 0 {
			r.state = shardDone
			st.doneShards++
		}
		st.runs = append(st.runs, r)
		st.bySlot[sh.Slot] = r
	}
	st.comps = make(chan completion, 2*len(st.runs)+len(c.workers))

	st.sink.setPhase("plan")
	st.sink.emit(Event{
		Type:        EventProgress,
		CellsDone:   st.cellsDone,
		CellsTotal:  len(cells),
		ShardsDone:  st.doneShards,
		ShardsTotal: len(st.runs),
	})

	fail := func(err error) (server.ResultPayload, []byte, error) {
		// The records survive a failure: a later run of the same spec
		// resumes from the cells already banked.
		st.sink.emit(Event{Type: EventFailed, Error: err.Error()})
		return server.ResultPayload{}, nil, err
	}

	st.sink.setPhase("run")
	barren := 0
	for st.doneShards < len(st.runs) {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("fleet: job %q interrupted: %w", norm.ID, err))
		}
		// Drain everything that finished since the last tick.
		for drained := true; drained; {
			select {
			case comp := <-st.comps:
				if err := st.handle(comp, c.opt.Clock.Now()); err != nil {
					return fail(err)
				}
			default:
				drained = false
			}
		}
		if st.doneShards == len(st.runs) {
			break
		}
		now := c.opt.Clock.Now()
		st.probeDown(ctx)
		st.dispatchPending(now)
		st.duplicateStragglers(now)

		if st.anyInFlight() || st.anyLive() {
			barren = 0
		} else {
			barren++
			if barren >= starveRounds {
				return fail(fmt.Errorf("fleet: %w: no live workers after %d probe rounds (%d/%d shards done)",
					errs.ErrUnavailable, barren, st.doneShards, len(st.runs)))
			}
		}

		// Wait out the tick, but wake immediately on a completion.
		tick := time.NewTimer(c.opt.Poll)
		var err error
		select {
		case comp := <-st.comps:
			err = st.handle(comp, c.opt.Clock.Now())
		case <-tick.C:
		case <-ctx.Done():
		}
		tick.Stop()
		if err != nil {
			return fail(err)
		}
	}

	st.sink.setPhase("merge")
	payload, compact, err := server.EncodeResultPayload(nil, st.cells, st.results, sweep.Merged(st.results))
	if err != nil {
		return fail(err)
	}
	st.sink.emit(Event{
		Type:        EventDone,
		Digest:      payload.Digest,
		CellsDone:   len(cells),
		CellsTotal:  len(cells),
		ShardsDone:  len(st.runs),
		ShardsTotal: len(st.runs),
	})
	return payload, compact, nil
}

// handle folds one attempt outcome into the run state. A returned
// error fails the whole job.
func (st *runState) handle(comp completion, now time.Time) error {
	sh := st.bySlot[comp.slot]
	sh.inFlight--
	st.c.addInflight(comp.worker, -1)

	if comp.err != nil {
		if sh.state == shardDone || st.ctx.Err() != nil {
			return nil // stale duplicate losing the race, or shutdown unwind
		}
		st.c.mRetried[comp.worker].Inc()
		sh.failures++
		sh.tried[comp.worker] = true
		if workerDown(comp.err) && st.c.setLive(comp.worker, false) {
			st.sink.emit(Event{Type: EventWorkerDown, Worker: comp.worker, Error: comp.err.Error()})
		}
		if errors.Is(comp.err, errs.ErrBadConfig) {
			// The worker rejected the shard spec itself; every retry
			// would be rejected identically (version skew, usually).
			return fmt.Errorf("fleet: shard %s rejected by %s: %w", sh.name(), comp.worker, comp.err)
		}
		if sh.failures >= st.c.opt.MaxAttempts {
			return fmt.Errorf("fleet: shard %s failed %d times, giving up: %w", sh.name(), sh.failures, comp.err)
		}
		if sh.inFlight == 0 {
			// No surviving duplicate: back off, then re-pool.
			sh.state = shardPending
			sh.notBefore = now.Add(retryDelay(st.c.opt.RetryBase, st.norm.Seed, sh.shard.Slot, sh.failures))
		}
		st.sink.emit(Event{
			Type: EventShardRetry, Shard: sh.name(), Worker: comp.worker,
			Attempt: sh.attempts, Error: comp.err.Error(),
		})
		return nil
	}

	if sh.state == shardDone {
		return nil // a duplicate already won; results are pure, discard
	}
	if err := st.accept(sh, comp.tasks); err != nil {
		return err
	}
	sh.state = shardDone
	st.doneShards++
	st.cellsDone += len(sh.remaining)
	st.c.mCompleted[comp.worker].Inc()
	st.sink.emit(Event{Type: EventShardDone, Shard: sh.name(), Worker: comp.worker, Attempt: sh.attempts})
	st.sink.progress(st.cellsDone, len(st.cells), st.doneShards, len(st.runs))
	return nil
}

// accept validates a shard's cell results against the grid, scatters them
// into full-grid positions and records each successful one in the
// spool. Any mismatch is a determinism
// violation — the worker computed something other than what the grid
// defines — and fails the job rather than corrupting the digest.
func (st *runState) accept(sh *shardRun, tasks []server.TaskResult) error {
	if len(tasks) != len(sh.remaining) {
		return fmt.Errorf("fleet: shard %s returned %d cells, expected %d",
			sh.name(), len(tasks), len(sh.remaining))
	}
	for i, idx := range sh.remaining {
		tr := tasks[i]
		want := st.cells[idx]
		if tr.Name != want.Name() || tr.Seed != want.Seed {
			return fmt.Errorf("fleet: shard %s cell %d is %q seed %d, grid says %q seed %d",
				sh.name(), idx, tr.Name, tr.Seed, want.Name(), want.Seed)
		}
		r := sweep.Result{Name: tr.Name, Seed: tr.Seed, Metrics: tr.Metrics}
		if tr.Error != "" {
			// Scatter the failure faithfully — an offline run of this
			// spec fails the same cell the same way, so the digest
			// still matches. Errored cells are never recorded; a
			// resume re-runs them (deterministically, to the same
			// error).
			r.Err = errors.New(tr.Error)
			st.results[idx] = r
			continue
		}
		st.results[idx] = r
		if st.c.opt.SpoolDir != "" {
			if err := server.WriteCell(st.c.opt.SpoolDir, st.grid, want, tr.Metrics); err != nil {
				st.c.warn(fmt.Errorf("fleet: %w", err)) // a lost record costs a recomputation
			}
		}
	}
	return nil
}

// dispatch launches one attempt of sh on w: a placement of a pending
// shard, or a duplicate of a running one.
func (st *runState) dispatch(sh *shardRun, w Worker, now time.Time) {
	sh.attempts++
	attempt := sh.attempts
	name := w.Name()
	sub := st.norm
	sub.Cells = append([]int(nil), sh.remaining...)
	// Attempt-scoped IDs keep duplicate attempts (retries, steals,
	// post-crash re-dispatches) from colliding on a worker that still
	// holds an earlier twin.
	sub.ID = fmt.Sprintf("%s-%s-a%d", st.norm.ID, sh.name(), attempt)

	typ := EventShardLeased
	if sh.state == shardRunning {
		typ = EventShardSteal
		sh.dups++
		st.c.mStolen[name].Inc()
	} else {
		sh.state = shardRunning
		sh.dups = 0
		st.c.mLeased[name].Inc()
	}
	sh.inFlight++
	sh.worker, sh.started = name, now
	st.c.addInflight(name, 1)
	st.sink.emit(Event{Type: typ, Shard: sh.name(), Worker: name, Attempt: attempt})
	go func() {
		tasks, err := w.RunShard(st.ctx, sub)
		select {
		case st.comps <- completion{slot: sh.shard.Slot, worker: name, tasks: tasks, err: err}:
		case <-st.ctx.Done():
		}
	}()
}

// probeDown pings workers currently marked down; a successful probe
// returns them to the rendezvous pool.
func (st *runState) probeDown(ctx context.Context) {
	for _, w := range st.c.workers {
		name := w.Name()
		if st.c.isLive(name) {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, st.c.opt.PingTimeout)
		err := w.Ping(pctx)
		cancel()
		if err == nil && st.c.setLive(name, true) {
			st.sink.emit(Event{Type: EventWorkerUp, Worker: name})
		}
	}
}

// dispatchPending leases every ready pending shard to its
// rendezvous-chosen worker, capacity permitting.
func (st *runState) dispatchPending(now time.Time) {
	for _, sh := range st.runs {
		if sh.state != shardPending || now.Before(sh.notBefore) {
			continue
		}
		if w := st.pickWorker(sh); w != nil {
			st.dispatch(sh, w, now)
		}
	}
}

// pickWorker chooses the live, non-saturated worker with the highest
// rendezvous score for the shard's slot, preferring workers that have
// not already failed this shard. Deterministic given worker health —
// which is all it needs to be, since placement never affects results.
func (st *runState) pickWorker(sh *shardRun) Worker {
	var best, bestUntried Worker
	var bestScore, bestUntriedScore uint64
	for _, w := range st.c.workers {
		name := w.Name()
		if !st.c.isLive(name) || st.c.inflightOf(name) >= st.c.opt.WorkerSlots {
			continue
		}
		score := rendezvousScore(sh.shard.Slot, name)
		if best == nil || score > bestScore {
			best, bestScore = w, score
		}
		if !sh.tried[name] && (bestUntried == nil || score > bestUntriedScore) {
			bestUntried, bestUntriedScore = w, score
		}
	}
	if bestUntried != nil {
		return bestUntried
	}
	return best
}

// duplicateStragglers gives one more attempt to each running shard
// whose newest attempt has run longer than StealAfter·2^k, k being the
// duplicates it already has, oldest first. The stalled worker counts as
// tried, so the attempt goes to a peer unless no peer has a free slot.
// It runs after dispatchPending, so pending work always outranks
// duplicates: a ready pending shard left unplaced means no live worker
// has a free slot, and pickWorker then finds none here either.
func (st *runState) duplicateStragglers(now time.Time) {
	var late []*shardRun
	for _, sh := range st.runs {
		if sh.state == shardRunning && now.Sub(sh.started) > st.c.opt.StealAfter<<sh.dups {
			late = append(late, sh)
		}
	}
	sort.SliceStable(late, func(i, j int) bool { return late[i].started.Before(late[j].started) })
	for _, sh := range late {
		sh.tried[sh.worker] = true
		w := st.pickWorker(sh)
		if w == nil {
			return // every live worker is full
		}
		st.dispatch(sh, w, now)
	}
}

func (st *runState) anyInFlight() bool {
	for _, sh := range st.runs {
		if sh.inFlight > 0 {
			return true
		}
	}
	return false
}

func (st *runState) anyLive() bool {
	for _, w := range st.c.workers {
		if st.c.isLive(w.Name()) {
			return true
		}
	}
	return false
}

// retryDelay is the deterministic backoff before re-pooling a failed
// shard: exponential in the failure count, jittered by a pure function
// of (job seed, slot, failure) so identical runs back off identically
// while distinct shards decorrelate.
func retryDelay(base time.Duration, seed int64, slot, failures int) time.Duration {
	d := base
	for i := 1; i < failures && d < 30*time.Second; i++ {
		d *= 2
	}
	j := uint64(sweep.DeriveSeed(seed, slot*97+failures)) % 1024
	d += time.Duration(uint64(d) * j / 2048)
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// deriveJobID names an anonymous fleet job by its normalized spec, so
// its shard job IDs on the workers are stable across reruns.
func deriveJobID(norm server.JobSpec) string {
	return fmt.Sprintf("fleet-%016x", hash64(specText(norm)))
}

// specText is what a normalized spec computes, as JSON: all of it but
// its ID.
func specText(spec server.JobSpec) string {
	spec.ID = ""
	data, _ := json.Marshal(spec) // strings, integers and slices of them: never fails
	return string(data)
}
