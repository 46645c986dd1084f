package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/metrics"
)

// listSpool returns the file names in a spool directory, skipping
// subdirectories (the cell records live in one).
func listSpool(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// testClock returns a FakeClock pinned at a fixed instant so event
// timestamps are reproducible across runs.
func testClock() *FakeClock {
	return NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
}

// smallSpec is a one-cell grid with tiny round counts: cost 10 tokens.
func smallSpec(id string) JobSpec {
	return JobSpec{
		ID:            id,
		Workloads:     []string{"microbenchmark"},
		Policies:      []string{"default"},
		Topos:         []string{"open720"},
		Seed:          7,
		WarmRounds:    2,
		EngineRounds:  4,
		MeasureRounds: 4,
	}
}

// startServer builds and starts a server, wiring cleanup. configure (may
// be nil) runs between New and Start — the window for test hooks.
func startServer(t *testing.T, opt Options, configure func(*Server)) *Server {
	t.Helper()
	if opt.Clock == nil {
		opt.Clock = testClock()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if configure != nil {
		configure(s)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := s.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx) // double-shutdown in tests that already drained is fine
	})
	return s
}

// waitTerminal blocks until the job's event stream closes (terminal or
// shutdown event) and returns the final status.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Subscribe(ctx, id, func(Event) error { return nil }); err != nil {
		t.Fatalf("waiting for job %q: %v", id, err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatalf("Status(%q): %v", id, err)
	}
	return st
}

func TestSubmitRunsJobToDone(t *testing.T) {
	s := startServer(t, Options{}, nil)
	st, err := s.Submit(context.Background(), smallSpec("alpha"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "alpha" || st.Cost != 10 {
		t.Fatalf("unexpected admission status: %+v", st)
	}
	final := waitTerminal(t, s, "alpha")
	if final.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}
	if !strings.HasPrefix(final.Digest, "sha256:") {
		t.Fatalf("digest %q does not look like a sha256 digest", final.Digest)
	}
	data, err := s.Result("alpha")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !strings.Contains(string(data), final.Digest) {
		t.Fatalf("payload does not embed its own digest %q", final.Digest)
	}
}

// eagerWorkerClock plays the fastest possible worker at every point where
// the server reads the clock: if a job is already on the queue it pops it
// and announces it running, as a real worker goroutine scheduled at that
// instant would.
type eagerWorkerClock struct {
	Clock
	s      *Server
	popped *job
}

func (c *eagerWorkerClock) Now() time.Time {
	if j := tryPop(c.s); j != nil {
		j.events.append(Event{Type: EventRunning, Job: j.spec.ID})
		c.popped = j
	}
	return c.Clock.Now()
}

// tryPop is a non-blocking queue pop.
func tryPop(s *Server) *job {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.queue.pop(ctx)
}

// TestQueuedEventPrecedesThePush: a worker that pops the job the instant
// it lands on the queue must still find "queued" at seq 0 of its log —
// admit used to push first and log second, so "running" could come out
// ahead of "queued" (seen as [running queued task done] on the NDJSON
// stream).
func TestQueuedEventPrecedesThePush(t *testing.T) {
	s, err := New(Options{Clock: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	s.started = true // admit without launching workers: the test is the worker
	clock := &eagerWorkerClock{Clock: s.clock, s: s}
	s.clock = clock
	if _, err := s.Submit(context.Background(), smallSpec("order")); err != nil {
		t.Fatal(err)
	}
	j := clock.popped
	if j == nil {
		if j = tryPop(s); j == nil {
			t.Fatal("admitted job is not on the queue")
		}
	}
	evs, _, _ := j.events.snapshotFrom(0)
	if len(evs) == 0 || evs[0].Type != EventQueued || evs[0].Seq != 0 {
		t.Fatalf("event log at pop time is %+v, want queued at seq 0", evs)
	}
}

// TestAdmittedStatusIsQueued: Submit answers with the status the job was
// admitted in. With idle workers a job is popped the moment it lands on
// the queue; admit used to read the status after the push, so a fast
// worker made Submit answer "running" (TestClientRoundTrip failed that
// way in 2 of 40 runs under -race). Every job here is submitted to idle
// workers while a poller contends for the server lock, which holds admit
// up long enough for a worker to get in: the old admit answered "running"
// for about one job in eight.
func TestAdmittedStatusIsQueued(t *testing.T) {
	const jobs = 48
	s := startServer(t, Options{JobWorkers: 2}, nil)
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				s.Jobs()
			}
		}
	}()
	defer func() { close(stop); <-polled }()
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("admit-%d", i)
		st, err := s.Submit(context.Background(), smallSpec(id))
		if err != nil {
			t.Fatal(err)
		}
		if st.ID != id || st.State != StateQueued {
			t.Fatalf("job %d: admitted status %+v, want queued %s", i, st, id)
		}
		waitTerminal(t, s, id) // the workers are idle again for the next one
	}
}

func TestSubmitValidation(t *testing.T) {
	s := startServer(t, Options{}, nil)
	cases := []struct {
		name string
		mut  func(*JobSpec)
	}{
		{"empty grid", func(js *JobSpec) { js.Workloads = nil }},
		{"bad workload", func(js *JobSpec) { js.Workloads = []string{"nope"} }},
		{"bad policy", func(js *JobSpec) { js.Policies = []string{"nope"} }},
		{"bad topo", func(js *JobSpec) { js.Topos = []string{"nope"} }},
		{"bad coherence", func(js *JobSpec) { js.Coherence = "nope" }},
		{"bad engine", func(js *JobSpec) { js.Engine = "nope" }},
		{"negative rounds", func(js *JobSpec) { js.WarmRounds = -1 }},
		{"negative workers", func(js *JobSpec) { js.Workers = -1 }},
		{"separator in id", func(js *JobSpec) { js.ID = "a/b" }},
		{"rounds sum overflows", func(js *JobSpec) { js.WarmRounds, js.EngineRounds = 1<<62, 1<<62 }},
		{"cost product overflows", func(js *JobSpec) {
			js.WarmRounds = 1 << 62
			js.Policies = []string{"default", "clustered"}
			js.Topos = []string{"open720", "power5-32"}
		}},
	}
	for _, tc := range cases {
		spec := smallSpec("v-" + strings.ReplaceAll(tc.name, " ", "-"))
		tc.mut(&spec)
		if _, err := s.Submit(context.Background(), spec); !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

func TestSubmitDuplicateAndUnknown(t *testing.T) {
	gate := make(chan struct{})
	s := startServer(t, Options{JobWorkers: 1}, func(s *Server) {
		s.beforeJob = func(*job) { <-gate }
	})
	defer close(gate)
	if _, err := s.Submit(context.Background(), smallSpec("dup")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := s.Submit(context.Background(), smallSpec("dup")); !errors.Is(err, errs.ErrJobExists) {
		t.Fatalf("duplicate err = %v, want ErrJobExists", err)
	}
	if _, err := s.Status("ghost"); !errors.Is(err, errs.ErrJobNotFound) {
		t.Fatalf("Status(ghost) err = %v, want ErrJobNotFound", err)
	}
	if _, err := s.Cancel("ghost"); !errors.Is(err, errs.ErrJobNotFound) {
		t.Fatalf("Cancel(ghost) err = %v, want ErrJobNotFound", err)
	}
	if _, err := s.Result("dup"); !errors.Is(err, errs.ErrJobNotDone) {
		t.Fatalf("Result(queued) err = %v, want ErrJobNotDone", err)
	}
}

func TestPerJobBudgetRejects(t *testing.T) {
	s := startServer(t, Options{MaxJobCost: 5}, nil) // smallSpec costs 10
	_, err := s.Submit(context.Background(), smallSpec("big"))
	if !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig (over budget)", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("error %q does not mention the budget", err)
	}
}

// TestOverloadBurstBounded floods a one-worker server with a 10x burst:
// the queue admits exactly its depth, everything else is rejected with a
// retryable overload error, memory stays bounded (no queue growth) and no
// goroutines leak after drain.
func TestOverloadBurstBounded(t *testing.T) {
	before := runtime.NumGoroutine()

	gate := make(chan struct{})
	popped := make(chan string, 64)
	s := startServer(t, Options{QueueDepth: 2, JobWorkers: 1}, func(s *Server) {
		s.beforeJob = func(j *job) { popped <- j.spec.ID; <-gate }
	})

	if _, err := s.Submit(context.Background(), smallSpec("run-0")); err != nil {
		t.Fatalf("Submit run-0: %v", err)
	}
	<-popped // run-0 is off the queue and blocked in the worker

	admitted := []string{"run-0"}
	var rejected int
	for i := 1; i <= 20; i++ { // 10x the queue depth
		spec := smallSpec("")
		spec.ID = "run-" + strings.Repeat("i", i) // distinct IDs
		_, err := s.Submit(context.Background(), spec)
		switch {
		case err == nil:
			admitted = append(admitted, spec.ID)
		case errors.Is(err, errs.ErrOverloaded):
			rejected++
			var re *RetryableError
			if !errors.As(err, &re) || re.RetryAfterSeconds < 1 {
				t.Fatalf("overload rejection %v lacks a usable Retry-After hint", err)
			}
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	if len(admitted) != 3 { // 1 running + QueueDepth queued
		t.Fatalf("admitted %d jobs (%v), want 3", len(admitted), admitted)
	}
	if rejected != 18 {
		t.Fatalf("rejected %d, want 18", rejected)
	}
	if depth, _ := s.queue.stats(); depth != 2 {
		t.Fatalf("queue depth %d after burst, want 2 (bounded)", depth)
	}

	close(gate)
	for _, id := range admitted {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("job %s state %s (err %q), want done", id, st.State, st.Error)
		}
	}

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Drained server must not leak goroutines (the worker pool exits).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTokenPoolRejects exhausts the outstanding-token pool while the
// queue still has depth: admission control is cost-based, not just
// count-based.
func TestTokenPoolRejects(t *testing.T) {
	gate := make(chan struct{})
	popped := make(chan string, 8)
	s := startServer(t, Options{QueueDepth: 64, MaxJobCost: 10, MaxQueuedCost: 15, JobWorkers: 1},
		func(s *Server) {
			s.beforeJob = func(j *job) { popped <- j.spec.ID; <-gate }
		})
	defer close(gate)

	if _, err := s.Submit(context.Background(), smallSpec("tok-a")); err != nil {
		t.Fatalf("Submit tok-a: %v", err)
	}
	<-popped // tok-a holds 10 of 15 tokens while running
	_, err := s.Submit(context.Background(), smallSpec("tok-b"))
	if !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded (token pool exhausted)", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	gate := make(chan struct{})
	popped := make(chan string, 8)
	s := startServer(t, Options{JobWorkers: 1}, func(s *Server) {
		s.beforeJob = func(j *job) { popped <- j.spec.ID; <-gate }
	})
	defer close(gate)

	if _, err := s.Submit(context.Background(), smallSpec("front")); err != nil {
		t.Fatalf("Submit front: %v", err)
	}
	<-popped
	if _, err := s.Submit(context.Background(), smallSpec("victim")); err != nil {
		t.Fatalf("Submit victim: %v", err)
	}

	st, err := s.Cancel("victim")
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if _, err := s.Cancel("victim"); !errors.Is(err, errs.ErrJobFinal) {
		t.Fatalf("second cancel err = %v, want ErrJobFinal", err)
	}
	// The terminal event must be canceled, and the stream must end.
	var last Event
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Subscribe(ctx, "victim", func(ev Event) error { last = ev; return nil }); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if last.Type != EventCanceled {
		t.Fatalf("terminal event %q, want canceled", last.Type)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := startServer(t, Options{MaxJobCost: 100_000_000}, nil)
	spec := smallSpec("long")
	spec.EngineRounds = 2_000_000 // seconds of work; cancelled well before done
	spec.MeasureRounds = 2_000_000
	if _, err := s.Submit(context.Background(), spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Wait for the running event, then cancel mid-run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errStop := errors.New("saw running")
	err := s.Subscribe(ctx, "long", func(ev Event) error {
		if ev.Type == EventRunning {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("waiting for running event: %v", err)
	}
	if _, err := s.Cancel("long"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st := waitTerminal(t, s, "long")
	if st.State != StateCanceled {
		t.Fatalf("state = %s (err %q), want canceled", st.State, st.Error)
	}
	if _, err := s.Result("long"); !errors.Is(err, errs.ErrJobNotDone) {
		t.Fatalf("Result of canceled job err = %v, want ErrJobNotDone", err)
	}
}

// jobCountsDiffer compares each server_jobs{state} gauge,
// server_jobs_running and WorkerHealth.Running with a walk of Jobs(),
// and describes the first disagreement ("" when all agree).
func jobCountsDiffer(s *Server) string {
	walk := make(map[JobState]int)
	for _, st := range s.Jobs() {
		walk[st.State]++
	}
	snap := s.Registry().Snapshot()
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		if got := snap.Gauge("server_jobs", metrics.Labels{"state": string(st)}); got != float64(walk[st]) {
			return fmt.Sprintf("server_jobs{state=%q} = %v, Jobs() has %d", st, got, walk[st])
		}
	}
	if got := snap.Gauge("server_jobs_running", nil); got != float64(walk[StateRunning]) {
		return fmt.Sprintf("server_jobs_running = %v, Jobs() has %d running", got, walk[StateRunning])
	}
	if got := s.WorkerHealth().Running; got != walk[StateRunning] {
		return fmt.Sprintf("WorkerHealth.Running = %d, Jobs() has %d running", got, walk[StateRunning])
	}
	return ""
}

// TestJobCountsMatchJobs takes jobs through every lifecycle: done,
// failed, refused by a full queue, canceled while queued, before start
// and while running, and left queued by a drain. At every hook
// (admission, worker pickup, each completed cell, settle) the per-state
// gauges must equal a walk of Jobs(). Each check runs while no other
// goroutine can move a job.
func TestJobCountsMatchJobs(t *testing.T) {
	ctx := context.Background()
	gate := make(chan struct{})
	popped := make(chan string, 1)
	var s *Server
	check := func(at string) {
		if d := jobCountsDiffer(s); d != "" {
			t.Errorf("%s: %s", at, d)
		}
	}
	s = startServer(t, Options{JobWorkers: 1, QueueDepth: 1, MaxJobCost: 100_000_000}, func(s *Server) {
		s.beforeJob = func(j *job) {
			check("picking up " + j.spec.ID)
			popped <- j.spec.ID
			<-gate
			if j.spec.ID == "fail" {
				// An unknown policy fails the job's compile.
				s.mu.Lock()
				j.spec.Policies = []string{"bogus"}
				s.mu.Unlock()
			}
		}
		s.afterTask = func(j *job, idx int) { check(fmt.Sprintf("cell %d of %s", idx, j.spec.ID)) }
	})
	submit := func(spec JobSpec) {
		t.Helper()
		if _, err := s.Submit(ctx, spec); err != nil {
			t.Fatalf("Submit %s: %v", spec.ID, err)
		}
		check("admitted " + spec.ID)
	}
	settled := func(id string, want JobState) {
		t.Helper()
		if st := waitTerminal(t, s, id); st.State != want {
			t.Fatalf("%s settled %s (err %q), want %s", id, st.State, st.Error, want)
		}
		check("settled " + id)
	}

	for _, c := range []struct {
		id   string
		want JobState
	}{{"done", StateDone}, {"fail", StateFailed}} {
		submit(smallSpec(c.id))
		<-popped
		gate <- struct{}{}
		settled(c.id, c.want)
	}

	submit(smallSpec("front"))
	<-popped
	submit(smallSpec("victim"))
	if _, err := s.Submit(ctx, smallSpec("refused")); !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("Submit refused: err %v, want ErrOverloaded", err)
	}
	check("refused")
	if _, err := s.Cancel("victim"); err != nil {
		t.Fatalf("Cancel victim: %v", err)
	}
	check("canceled victim")
	if _, err := s.Cancel("front"); err != nil {
		t.Fatalf("Cancel front: %v", err)
	}
	check("canceling front")
	gate <- struct{}{}
	settled("front", StateCanceled)

	long := smallSpec("long")
	long.EngineRounds, long.MeasureRounds = 2_000_000, 2_000_000 // cancelled well before done
	submit(long)
	<-popped
	gate <- struct{}{}
	errStop := errors.New("saw running")
	if err := s.Subscribe(ctx, "long", func(ev Event) error {
		if ev.Type == EventRunning {
			return errStop
		}
		return nil
	}); !errors.Is(err, errStop) {
		t.Fatalf("waiting for long to run: %v", err)
	}
	check("running long")
	if _, err := s.Cancel("long"); err != nil {
		t.Fatalf("Cancel long: %v", err)
	}
	settled("long", StateCanceled)

	submit(smallSpec("inflight"))
	<-popped
	submit(smallSpec("parked"))
	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(ctx) }()
	if err := s.Subscribe(ctx, "parked", func(Event) error { return nil }); err != nil {
		t.Fatalf("Subscribe parked: %v", err)
	}
	check("drained parked")
	gate <- struct{}{}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	check("drained")
	want := map[string]JobState{"done": StateDone, "fail": StateFailed, "front": StateCanceled, "victim": StateCanceled,
		"long": StateCanceled, "inflight": StateDone, "parked": StateQueued}
	for _, st := range s.Jobs() {
		if st.State != want[st.ID] {
			t.Errorf("%s is %s, want %s", st.ID, st.State, want[st.ID])
		}
	}
}

// TestShutdownMidStream drains the server while a subscriber is attached
// to a queued job: the stream must end with a shutdown event, and the
// spec must stay in the spool.
func TestShutdownMidStream(t *testing.T) {
	spool := t.TempDir()
	gate := make(chan struct{})
	popped := make(chan string, 8)
	s := startServer(t, Options{JobWorkers: 1, SpoolDir: spool}, func(s *Server) {
		s.beforeJob = func(j *job) { popped <- j.spec.ID; <-gate }
	})

	if _, err := s.Submit(context.Background(), smallSpec("inflight")); err != nil {
		t.Fatalf("Submit inflight: %v", err)
	}
	<-popped
	if _, err := s.Submit(context.Background(), smallSpec("parked")); err != nil {
		t.Fatalf("Submit parked: %v", err)
	}

	type subResult struct {
		events []Event
		err    error
	}
	subDone := make(chan subResult, 1)
	go func() {
		var evs []Event
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := s.Subscribe(ctx, "parked", func(ev Event) error {
			evs = append(evs, ev)
			return nil
		})
		subDone <- subResult{evs, err}
	}()

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()

	// The queued job's stream ends with a shutdown event while the
	// in-flight job is still blocked in the worker.
	sub := <-subDone
	if sub.err != nil {
		t.Fatalf("subscriber error: %v", sub.err)
	}
	if n := len(sub.events); n != 2 || sub.events[0].Type != EventQueued || sub.events[1].Type != EventShutdown {
		t.Fatalf("parked events = %+v, want [queued shutdown]", sub.events)
	}
	if !s.Draining() {
		t.Fatal("server not draining during shutdown")
	}
	if _, err := s.Submit(context.Background(), smallSpec("late")); !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("submit while draining err = %v, want ErrUnavailable", err)
	}

	close(gate) // let the in-flight job finish; the drain completes
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st, _ := s.Status("inflight"); st.State != StateDone {
		t.Fatalf("inflight state = %s, want done (drained, not cut)", st.State)
	}
	if entries, err := listSpool(spool); err != nil || len(entries) != 1 || entries[0] != "00000001-parked.json" {
		t.Fatalf("spool after the drain = %v (err %v), want only the parked job's file", entries, err)
	}
}

// TestShutdownDeadlineCancelsRunning forces the drain deadline while a
// job is mid-run: Shutdown must cancel it and report the cut.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	s := startServer(t, Options{MaxJobCost: 100_000_000}, nil)
	spec := smallSpec("stuck")
	spec.EngineRounds = 2_000_000
	spec.MeasureRounds = 2_000_000
	if _, err := s.Submit(context.Background(), spec); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errStop := errors.New("saw running")
	if err := s.Subscribe(ctx, "stuck", func(ev Event) error {
		if ev.Type == EventRunning {
			return errStop
		}
		return nil
	}); !errors.Is(err, errStop) {
		t.Fatalf("waiting for running event: %v", err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer scancel()
	err := s.Shutdown(sctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded (cut drain)", err)
	}
	if st, _ := s.Status("stuck"); st.State != StateCanceled {
		t.Fatalf("stuck state = %s, want canceled", st.State)
	}
}

// TestSpoolRestartDeterministic drains queued jobs to the spool, restarts
// onto the same directory, and requires the re-admitted job to produce
// the byte-identical payload a never-interrupted server produces.
func TestSpoolRestartDeterministic(t *testing.T) {
	spool := t.TempDir()
	gate := make(chan struct{})
	popped := make(chan string, 8)
	s1 := startServer(t, Options{JobWorkers: 1, SpoolDir: spool}, func(s *Server) {
		s.beforeJob = func(j *job) { popped <- j.spec.ID; <-gate }
	})
	if _, err := s1.Submit(context.Background(), smallSpec("block")); err != nil {
		t.Fatalf("Submit block: %v", err)
	}
	<-popped
	for _, id := range []string{"replay-1", "replay-2"} {
		if _, err := s1.Submit(context.Background(), smallSpec(id)); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
	}
	shutdownReleasing(t, s1, gate)

	// Restart on the same spool: both specs re-admit under their IDs, in
	// admission order, and run to the same digests a fresh server yields.
	s2 := startServer(t, Options{SpoolDir: spool}, nil)
	jobs := s2.Jobs()
	if len(jobs) != 2 || jobs[0].ID != "replay-1" || jobs[1].ID != "replay-2" {
		t.Fatalf("restart jobs = %+v, want replay-1 then replay-2", jobs)
	}
	fresh := startServer(t, Options{}, nil)
	for _, id := range []string{"replay-1", "replay-2"} {
		if st := waitTerminal(t, s2, id); st.State != StateDone {
			t.Fatalf("%s state = %s (err %q), want done", id, st.State, st.Error)
		}
		if _, err := fresh.Submit(context.Background(), smallSpec(id)); err != nil {
			t.Fatalf("fresh Submit %s: %v", id, err)
		}
		if st := waitTerminal(t, fresh, id); st.State != StateDone {
			t.Fatalf("fresh %s state = %s, want done", id, st.State)
		}
		got, _ := s2.Result(id)
		want, _ := fresh.Result(id)
		if string(got) != string(want) {
			t.Fatalf("%s: restarted payload differs from fresh payload", id)
		}
	}
	// The spool is empty again: every re-admitted job settled and removed
	// its file.
	if entries, err := listSpool(spool); err != nil || len(entries) != 0 {
		t.Fatalf("spool entries after restart = %v (err %v), want none", entries, err)
	}
}

// shutdownReleasing drains s while its only worker is held at gate. The
// gate opens once Shutdown has taken the queue, so every job still
// queued stays queued and the held job runs to done.
func shutdownReleasing(t *testing.T, s *Server, gate chan struct{}) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	for {
		if n, _ := s.queue.stats(); n == 0 && s.Draining() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestRestartAnonymousIDsNeverConflict: jobs re-admitted from the spool
// keep the seq their anonymous "job-<seq>" IDs were made from, and the
// counter resumes after the largest seq on disk, so an anonymous submit
// after a restart never collides with a re-admitted job.
func TestRestartAnonymousIDsNeverConflict(t *testing.T) {
	spool := t.TempDir()
	gate := make(chan struct{})
	popped := make(chan string, 8)
	s1 := startServer(t, Options{JobWorkers: 1, SpoolDir: spool}, func(s *Server) {
		s.beforeJob = func(j *job) { popped <- j.spec.ID; <-gate }
	})
	for i := 0; i < 3; i++ {
		if _, err := s1.Submit(context.Background(), smallSpec("")); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if i == 0 {
			<-popped // job-0 holds the worker; job-1 and job-2 stay queued
		}
	}
	shutdownReleasing(t, s1, gate)

	s2 := startServer(t, Options{SpoolDir: spool}, nil)
	taken := map[string]bool{}
	for i, st := range s2.Jobs() {
		if want := fmt.Sprintf("job-%d", i+1); st.ID != want || st.Seq != uint64(i+1) {
			t.Errorf("re-admitted job %d = %s seq %d, want %s seq %d", i, st.ID, st.Seq, want, i+1)
		}
		taken[st.ID] = true
	}
	if len(taken) != 2 {
		t.Errorf("restart re-admitted %v, want job-1 and job-2", s2.Jobs())
	}
	for i := 0; i < 3; i++ {
		st, err := s2.Submit(context.Background(), smallSpec(""))
		if err != nil {
			t.Fatalf("anonymous submit %d after the restart: %v", i, err)
		}
		if taken[st.ID] {
			t.Fatalf("anonymous submit %d got the taken ID %s", i, st.ID)
		}
		taken[st.ID] = true
	}
	for id := range taken {
		if st := waitTerminal(t, s2, id); st.State != StateDone {
			t.Fatalf("%s state = %s (err %q), want done", id, st.State, st.Error)
		}
	}
}

// TestShutdownLeavesSpoolUnchanged: a drain writes nothing. The jobs
// still queued, and the running job the deadline cuts, keep the files
// admission wrote for them, and no file is added.
func TestShutdownLeavesSpoolUnchanged(t *testing.T) {
	spool := t.TempDir()
	s := startServer(t, Options{JobWorkers: 1, MaxJobCost: 100_000_000, SpoolDir: spool}, nil)
	stuck := smallSpec("stuck")
	stuck.EngineRounds = 2_000_000
	stuck.MeasureRounds = 2_000_000
	if _, err := s.Submit(context.Background(), stuck); err != nil {
		t.Fatalf("Submit stuck: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errStop := errors.New("saw running")
	if err := s.Subscribe(ctx, "stuck", func(ev Event) error {
		if ev.Type == EventRunning {
			return errStop
		}
		return nil
	}); !errors.Is(err, errStop) {
		t.Fatalf("waiting for running event: %v", err)
	}
	for _, id := range []string{"parked-1", "parked-2"} {
		if _, err := s.Submit(context.Background(), smallSpec(id)); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
	}
	before, err := listSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 3 {
		t.Errorf("spool before the drain = %v, want the three jobs' files", before)
	}

	cut, cutNow := context.WithCancel(context.Background())
	cutNow()
	if err := s.Shutdown(cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown err = %v, want context.Canceled (cut drain)", err)
	}
	after, err := listSpool(spool)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(after, " ") != strings.Join(before, " ") {
		t.Fatalf("spool after the drain = %v, want %v", after, before)
	}
}

func TestPriorityOrdersExecution(t *testing.T) {
	gate := make(chan struct{})
	popped := make(chan string, 8)
	s := startServer(t, Options{JobWorkers: 1}, func(s *Server) {
		s.beforeJob = func(j *job) { popped <- j.spec.ID; <-gate }
	})
	if _, err := s.Submit(context.Background(), smallSpec("head")); err != nil {
		t.Fatalf("Submit head: %v", err)
	}
	<-popped // pin the worker so the queue orders the rest

	low1 := smallSpec("low-1")
	low2 := smallSpec("low-2")
	high := smallSpec("high")
	high.Priority = 5
	for _, spec := range []JobSpec{low1, low2, high} {
		if _, err := s.Submit(context.Background(), spec); err != nil {
			t.Fatalf("Submit %s: %v", spec.ID, err)
		}
	}
	close(gate)
	var order []string
	for i := 0; i < 3; i++ {
		order = append(order, <-popped)
	}
	want := []string{"high", "low-1", "low-2"} // priority first, FIFO within
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}
