package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"threadcluster/internal/errs"
	"threadcluster/internal/memory"
	"threadcluster/internal/sched"
)

func newLoadedMachine(t *testing.T, threads int) *Machine {
	t.Helper()
	m, err := NewMachine(testConfig(sched.PolicyDefault))
	if err != nil {
		t.Fatal(err)
	}
	arena := memory.NewDefaultArena()
	for i := 0; i < threads; i++ {
		g := &stride{region: arena.MustAlloc(8<<10, 0), step: memory.LineSize}
		if err := m.AddThread(&Thread{ID: sched.ThreadID(i), Gen: g}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestRunHonorsContextCancellation(t *testing.T) {
	m := newLoadedMachine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := m.Clock()
	if err := m.Run(ctx, 10_000_000); !errors.Is(err, context.Canceled) {
		t.Errorf("Run err = %v, want context.Canceled", err)
	}
	if m.Clock() != before {
		t.Error("a pre-cancelled context should not advance the clock")
	}
}

// TestRunSaturatesHugeBudgets gives Run, on a clock already past zero, a
// budget that would carry the clock past 2^64: the end of the run must
// saturate rather than wrap below the clock (which ran nothing and
// reported success), so the machine runs until the context stops it.
func TestRunSaturatesHugeBudgets(t *testing.T) {
	m := newLoadedMachine(t, 4)
	if err := m.RunRoundsCtx(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	const want = 3
	stop := m.Rounds() + want
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.OnTick(func(m *Machine) {
		if m.Rounds() == stop {
			cancel()
		}
	})
	if err := m.Run(ctx, math.MaxUint64); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run(MaxUint64) err = %v, want context.Canceled after %d rounds", err, want)
	}
	if m.Rounds() != stop {
		t.Fatalf("Run(MaxUint64) stopped at round %d, want %d", m.Rounds(), stop)
	}
}

func TestRunRoundsCtxStopsAtRoundBoundary(t *testing.T) {
	m := newLoadedMachine(t, 4)
	// Run a few rounds, then cancel: the machine should stop between
	// rounds, not mid-quantum, so the clock lands on a round boundary.
	if err := m.RunRoundsCtx(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	rounds := m.Rounds()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.RunRoundsCtx(ctx, 50); !errors.Is(err, context.Canceled) {
		t.Errorf("RunRoundsCtx err = %v, want context.Canceled", err)
	}
	if m.Rounds() != rounds {
		t.Errorf("rounds advanced after cancel: %d -> %d", rounds, m.Rounds())
	}
}

func TestSentinelErrors(t *testing.T) {
	m := newLoadedMachine(t, 2)
	arena := memory.NewDefaultArena()
	g := &stride{region: arena.MustAlloc(4096, 0), step: memory.LineSize}

	if err := m.AddThread(&Thread{ID: 0, Gen: g}); !errors.Is(err, errs.ErrDuplicateThread) {
		t.Errorf("duplicate AddThread err = %v, want ErrDuplicateThread", err)
	}
	if err := m.AddThread(&Thread{ID: 99}); !errors.Is(err, errs.ErrBadConfig) {
		t.Errorf("nil-generator AddThread err = %v, want ErrBadConfig", err)
	}
	if err := m.RemoveThread(12345); !errors.Is(err, errs.ErrUnknownThread) {
		t.Errorf("RemoveThread unknown err = %v, want ErrUnknownThread", err)
	}
}

func TestMachineMetricsSnapshot(t *testing.T) {
	m := newLoadedMachine(t, 4)
	m.RunRoundsCtx(context.Background(), 10)
	s := m.SnapshotMetrics()
	if got := s.Counter(MetricRounds, nil); got != 10 {
		t.Errorf("%s = %d, want 10", MetricRounds, got)
	}
	if s.Gauge(MetricClock, nil) == 0 {
		t.Errorf("%s should be nonzero after running", MetricClock)
	}
	if s.Counter(MetricOps, nil) == 0 {
		t.Errorf("%s should be nonzero after running", MetricOps)
	}
	// Per-source cache attribution: the sources seen must sum to the
	// total access count.
	var total uint64
	for _, sample := range s.Samples {
		if sample.Name == MetricCacheAccesses {
			total += sample.Count
		}
	}
	if total == 0 {
		t.Error("cache access metrics missing")
	}
	// Runqueue depth histogram observes once per round.
	h, ok := s.Get(MetricRunqueueDepth, nil)
	if !ok || h.Count != 10 {
		t.Errorf("%s count = %d, want 10", MetricRunqueueDepth, h.Count)
	}
}
