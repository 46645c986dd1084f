package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// systemClock: tests may read wall time (the lint suite exempts
// _test.go files); the library under test still only sees the
// injected Clock.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// testSpec is a 6-cell grid (2 workloads x 3 policies) small enough to
// run many times per test binary.
func testSpec(id string) server.JobSpec {
	return server.JobSpec{
		ID:            id,
		Workloads:     []string{"microbenchmark", "volano"},
		Policies:      []string{"default", "round-robin", "clustered"},
		Topos:         []string{"open720"},
		Seed:          42,
		WarmRounds:    2,
		EngineRounds:  8,
		MeasureRounds: 6,
	}
}

// offlinePayload runs the spec on the offline `tcsim sweep` path: the
// byte-level ground truth every fleet configuration must reproduce.
func offlinePayload(t *testing.T, spec server.JobSpec) ([]byte, string) {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	grid, err := norm.Grid()
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	cells, results, merged, err := experiments.RunGrid(context.Background(), grid, 2)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	payload, err := server.BuildResultPayload(cells, results, merged)
	if err != nil {
		t.Fatalf("BuildResultPayload: %v", err)
	}
	data, err := payload.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	return data, payload.Digest
}

// runShardOffline executes a shard-scoped spec in-process, exactly the
// way a tcsimd worker would: compile the subset with full-grid
// identities, run it, build the canonical payload.
func runShardOffline(ctx context.Context, spec server.JobSpec) (server.ResultPayload, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return server.ResultPayload{}, err
	}
	grid, err := norm.Grid()
	if err != nil {
		return server.ResultPayload{}, err
	}
	cells, tasks, err := grid.SubsetTasks(norm.Cells)
	if err != nil {
		return server.ResultPayload{}, err
	}
	results, err := sweep.Run(ctx, tasks, 1)
	if err != nil {
		return server.ResultPayload{}, err
	}
	return server.BuildResultPayload(cells, results, sweep.Merged(results))
}

// fakeWorker is an in-process Worker with failure-injection hooks.
type fakeWorker struct {
	name string
	// pingErr, when set, keeps the worker marked down.
	pingErr atomic.Value // error
	// failNext counts attempts to fail before running normally.
	failNext atomic.Int64
	// hangFirst blocks the worker's first RunShard until ctx cancels.
	hangFirst atomic.Bool
	// cellsRun counts grid cells this worker actually executed.
	cellsRun atomic.Int64
	// shardsRun counts RunShard calls that ran to completion.
	shardsRun atomic.Int64
}

func newFakeWorker(name string) *fakeWorker { return &fakeWorker{name: name} }

func (w *fakeWorker) Name() string { return w.name }

func (w *fakeWorker) Ping(ctx context.Context) error {
	if err, _ := w.pingErr.Load().(error); err != nil {
		return err
	}
	return nil
}

func (w *fakeWorker) RunShard(ctx context.Context, spec server.JobSpec) ([]server.TaskResult, error) {
	if w.hangFirst.CompareAndSwap(true, false) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if w.failNext.Add(-1) >= 0 {
		return nil, fmt.Errorf("fake worker %s: injected failure", w.name)
	}
	w.failNext.Add(1) // undo the decrement below zero
	p, err := runShardOffline(ctx, spec)
	if err == nil {
		w.cellsRun.Add(int64(len(p.Tasks)))
		w.shardsRun.Add(1)
	}
	return p.Tasks, err
}

// fastOptions are coordinator knobs tuned for test latency.
func fastOptions() Options {
	return Options{
		Clock:         systemClock{},
		VirtualShards: 8,
		Poll:          time.Millisecond,
		RetryBase:     time.Millisecond,
		PingTimeout:   100 * time.Millisecond,
		StealAfter:    time.Minute,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]Worker{newFakeWorker("a")}, Options{}); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("missing clock: got %v, want ErrBadConfig", err)
	}
	if _, err := New(nil, fastOptions()); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("no workers: got %v, want ErrBadConfig", err)
	}
	dup := []Worker{newFakeWorker("a"), newFakeWorker("a")}
	if _, err := New(dup, fastOptions()); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("duplicate names: got %v, want ErrBadConfig", err)
	}
}

func TestRunRejectsShardScopedSpec(t *testing.T) {
	c, err := New([]Worker{newFakeWorker("a")}, fastOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := testSpec("pre-sharded")
	spec.Cells = []int{0, 1}
	if _, _, err := c.Run(context.Background(), spec); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("shard-scoped spec: got %v, want ErrBadConfig", err)
	}
}

// TestFleetRetriesFailedShards: a worker that fails its first attempts
// recovers via the deterministic retry path and still produces the
// offline bytes.
func TestFleetRetriesFailedShards(t *testing.T) {
	w := newFakeWorker("flaky")
	w.failNext.Store(2)
	opt := fastOptions()
	opt.MaxAttempts = 8
	var events bytes.Buffer
	opt.Events = &events
	c, err := New([]Worker{w}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, _ := offlinePayload(t, testSpec("retry-job"))
	_, got, err := c.Run(context.Background(), testSpec("retry-job"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet payload differs from offline after retries")
	}
	if !strings.Contains(events.String(), `"shard_retry"`) {
		t.Fatalf("no shard_retry event in stream:\n%s", events.String())
	}
}

// TestFleetFailsWhenAllWorkersDead: with every worker refusing pings
// and failing attempts, the job fails unavailable instead of spinning.
func TestFleetFailsWhenAllWorkersDead(t *testing.T) {
	w := newFakeWorker("corpse")
	w.failNext.Store(1 << 30)
	w.pingErr.Store(errors.New("no route to host"))
	opt := fastOptions()
	opt.MaxAttempts = 1 << 30 // force the starvation path, not the attempt budget
	c, err := New([]Worker{w}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, _, err = c.Run(context.Background(), testSpec("doomed"))
	if !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("all workers dead: got %v, want ErrUnavailable", err)
	}
}

// runStalled runs spec on a fleet of workers under a 10 s deadline,
// requires the offline bytes and returns the event stream. A
// coordinator that waits on a wedged attempt fails here within seconds
// instead of hanging until the test binary's timeout.
func runStalled(t *testing.T, opt Options, spec server.JobSpec, workers ...Worker) []Event {
	t.Helper()
	var events bytes.Buffer
	opt.Events = &events
	c, err := New(workers, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, _ := offlinePayload(t, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, got, err := c.Run(ctx, spec); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Run: %v, payload equals offline: %v\n%s", err, bytes.Equal(got, want), events.String())
	}
	var evs []Event
	for dec := json.NewDecoder(&events); dec.More(); {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("decoding event stream: %v", err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// wedged is a fake worker whose first attempt hangs until the run ends.
func wedged(name string) *fakeWorker {
	w := newFakeWorker(name)
	w.hangFirst.Store(true)
	return w
}

// steals counts the duplicate attempts in an event stream.
func steals(evs []Event) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == EventShardSteal {
			n++
		}
	}
	return n
}

// TestFleetStealsStragglers: one worker wedges on its first shard; an
// idle peer is handed a duplicate and the job finishes with the
// offline bytes. Duplicate completions are safe because shard results
// are pure functions of the spec.
func TestFleetStealsStragglers(t *testing.T) {
	opt := fastOptions()
	opt.StealAfter = 5 * time.Millisecond
	reg := metrics.NewRegistry()
	opt.Registry = reg
	if evs := runStalled(t, opt, testSpec("steal-job"), wedged("slow"), newFakeWorker("fast")); steals(evs) == 0 {
		t.Fatalf("no shard_steal event in stream: %+v", evs)
	}
	var expo bytes.Buffer
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(expo.String(), `fleet_shards_stolen_total{worker="fast"} 1`) {
		t.Fatalf("steal not counted:\n%s", expo.String())
	}
}

// TestFleetStragglerAloneRetriesOnItself: a fleet of one worker with two
// slots wedges its first attempt. With no peer to prefer, the duplicate
// goes to the stalled worker's free slot.
func TestFleetStragglerAloneRetriesOnItself(t *testing.T) {
	opt := fastOptions()
	opt.WorkerSlots = 2
	opt.StealAfter = 5 * time.Millisecond
	if evs := runStalled(t, opt, testSpec("alone-job"), wedged("alone")); steals(evs) == 0 {
		t.Fatalf("no shard_steal event in stream: %+v", evs)
	}
}

// TestFleetRecoversTwoStalledAttempts: on a one-cell grid, both workers
// wedge their first attempt, the placement and then its duplicate, which
// goes to the peer although the stalled worker has a free slot. The
// duplicate's own timer, twice as long, gives the shard a third attempt.
func TestFleetRecoversTwoStalledAttempts(t *testing.T) {
	opt := fastOptions()
	opt.WorkerSlots = 2
	opt.StealAfter = 5 * time.Millisecond
	spec := testSpec("two-stalls")
	spec.Workloads, spec.Policies = []string{"microbenchmark"}, []string{"default"}
	evs := runStalled(t, opt, spec, wedged("a"), wedged("b"))
	var on []string
	for _, ev := range evs {
		if ev.Type == EventShardLeased || ev.Type == EventShardSteal {
			on = append(on, ev.Worker)
		}
	}
	if steals(evs) < 2 || on[0] == on[1] {
		t.Fatalf("want >= 2 duplicates, the first on the peer; attempts ran on %v", on)
	}
}

// TestFleetDuplicatesNeverDisplacePendingWork: with a straggler timer
// shorter than any shard, every running shard is late at once, yet no
// duplicate is dispatched before every shard has had its first
// placement.
func TestFleetDuplicatesNeverDisplacePendingWork(t *testing.T) {
	opt := fastOptions()
	opt.StealAfter = time.Nanosecond
	evs := runStalled(t, opt, testSpec("pending-first"), wedged("slow"), newFakeWorker("fast"))
	placed, stole := make(map[string]bool), false
	for _, ev := range evs {
		switch {
		case ev.Type == EventShardSteal:
			stole = true
		case ev.Type == EventShardLeased && stole && !placed[ev.Shard]:
			t.Fatalf("shard %s first placed after a duplicate: %+v", ev.Shard, evs)
		case ev.Type == EventShardLeased:
			placed[ev.Shard] = true
		}
	}
	if !stole || len(placed) < 3 {
		t.Fatalf("want a duplicate after >= 3 placements, got %d placements: %+v", len(placed), evs)
	}
}

// cancelAfterDone cancels a context once n shard_done events passed
// through the stream — a deterministic stand-in for kill -9 on the
// coordinator.
type cancelAfterDone struct {
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterDone) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"type":"shard_done"`)) {
		c.n--
		if c.n == 0 {
			c.cancel()
		}
	}
	return len(p), nil
}

// recordFiles lists the cell records in a fleet spool.
func recordFiles(t *testing.T, spool string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(spool, "cells", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestFleetCheckpointResume: a coordinator killed mid-sweep leaves the
// records of the cells it banked; a fresh coordinator over the same
// spool runs only the missing cells and converges on the uninterrupted
// digest, and a third run leases no shard at all and returns the same
// bytes.
func TestFleetCheckpointResume(t *testing.T) {
	spool := t.TempDir()
	spec := testSpec("") // empty ID: exercises the deterministic derived ID
	want, wantDigest := offlinePayload(t, spec)
	total := int64(len(spec.Workloads) * len(spec.Policies) * len(spec.Topos))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := fastOptions()
	opt.SpoolDir = spool
	opt.Events = &cancelAfterDone{n: 1, cancel: cancel}
	c1, err := New([]Worker{newFakeWorker("a")}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := c1.Run(ctx, spec); err == nil {
		t.Fatalf("interrupted run unexpectedly succeeded")
	}
	if recs := recordFiles(t, spool); len(recs) == 0 || int64(len(recs)) >= total {
		t.Fatalf("interrupted run left %d of %d cell records", len(recs), total)
	}

	for _, run := range []string{"resumed", "all hits"} {
		opt := fastOptions()
		opt.SpoolDir = spool
		var events bytes.Buffer
		opt.Events = &events
		w := newFakeWorker("a")
		c, err := New([]Worker{w}, opt)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		payload, got, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s Run: %v", run, err)
		}
		if !bytes.Equal(got, want) || payload.Digest != wantDigest {
			t.Fatalf("%s payload differs from offline", run)
		}
		if warns := c.Warnings(); len(warns) != 0 {
			t.Fatalf("%s run produced warnings: %v", run, warns)
		}
		ran := w.cellsRun.Load()
		leased := strings.Count(events.String(), `"type":"shard_leased"`)
		switch {
		case run == "resumed" && (ran == 0 || ran >= total):
			t.Fatalf("resume ran %d of %d cells; the records were not used", ran, total)
		case run == "all hits" && (ran != 0 || leased != 0):
			t.Fatalf("all-hit run ran %d cells in %d leased shards, want none", ran, leased)
		}
	}
}

// TestFleetReplaysGrownGrid: records are keyed by cell, not by grid
// position, so a second run over the grid with one workload appended
// sends only the new workload's cells to the workers and still returns
// the offline digest.
func TestFleetReplaysGrownGrid(t *testing.T) {
	opt := fastOptions()
	opt.SpoolDir = t.TempDir()
	spec := testSpec("base")
	grown := testSpec("grown")
	grown.Workloads = append(grown.Workloads, "rubis")
	for _, run := range []struct {
		spec server.JobSpec
		ran  int64
	}{
		{spec, 6},
		{grown, int64(len(grown.Policies))},
	} {
		_, wantDigest := offlinePayload(t, run.spec)
		w := newFakeWorker("a")
		c, err := New([]Worker{w}, opt)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		payload, _, err := c.Run(context.Background(), run.spec)
		if err != nil {
			t.Fatalf("%s Run: %v", run.spec.ID, err)
		}
		if payload.Digest != wantDigest {
			t.Fatalf("%s digest %s, offline %s", run.spec.ID, payload.Digest, wantDigest)
		}
		if got := w.cellsRun.Load(); got != run.ran {
			t.Fatalf("%s sent %d cells to the worker, want %d", run.spec.ID, got, run.ran)
		}
		if warns := c.Warnings(); len(warns) != 0 {
			t.Fatalf("%s run produced warnings: %v", run.spec.ID, warns)
		}
	}
}

// TestFleetQuarantinesCorruptCheckpoint: a torn cell record is
// quarantined with a structured warning and its cell recomputed; every
// other recorded cell is replayed.
func TestFleetQuarantinesCorruptCheckpoint(t *testing.T) {
	spool := t.TempDir()
	spec := testSpec("corrupt-record")
	want, _ := offlinePayload(t, spec)
	opt := fastOptions()
	opt.SpoolDir = spool
	c, err := New([]Worker{newFakeWorker("a")}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := c.Run(context.Background(), spec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	recs := recordFiles(t, spool)
	if err := os.WriteFile(recs[0], []byte(`{"epoch": 1, "spec": {`), 0o666); err != nil {
		t.Fatalf("tearing a record: %v", err)
	}

	w := newFakeWorker("a")
	c, err = New([]Worker{w}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, got, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload differs from offline after quarantine")
	}
	warns := c.Warnings()
	if len(warns) != 1 || !errors.Is(warns[0], errs.ErrSpoolCorrupt) {
		t.Fatalf("want one ErrSpoolCorrupt warning, got %v", warns)
	}
	if _, err := os.Stat(recs[0] + server.QuarantineSuffix); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if ran := w.cellsRun.Load(); ran != 1 {
		t.Fatalf("recomputed %d cells, want only the torn one", ran)
	}
}

// TestFleetMetricsExposition: the fleet gauges and counters render a
// valid Prometheus exposition with per-worker series.
func TestFleetMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	opt := fastOptions()
	opt.Registry = reg
	c, err := New([]Worker{newFakeWorker("a"), newFakeWorker("b")}, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := c.Run(context.Background(), testSpec("metrics-job")); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	if err := metrics.CheckPrometheusText(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		`fleet_worker_up{worker="a"} 1`,
		`fleet_worker_up{worker="b"} 1`,
		`fleet_worker_inflight{worker="a"} 0`,
		`fleet_workers_live 2`,
		`fleet_shards_completed_total{worker=`,
		`fleet_shards_leased_total{worker=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
