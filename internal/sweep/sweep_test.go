package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"threadcluster/internal/metrics"
)

// fakeTask deterministically derives a snapshot from its seed.
func fakeTask(name string, seed int64) Task {
	return Task{
		Name: name,
		Seed: seed,
		Run: func(_ context.Context, s int64) (metrics.Snapshot, error) {
			r := metrics.NewRegistry()
			r.Counter("seen", nil).Add(uint64(s))
			return r.Snapshot(), nil
		},
	}
}

func TestDeriveSeedStableAndDistinct(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 100; i++ {
		s := DeriveSeed(1, i)
		if s < 0 {
			t.Fatalf("DeriveSeed(1,%d) = %d, want non-negative", i, s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: index %d and %d both -> %d", prev, i, s)
		}
		seen[s] = i
		if again := DeriveSeed(1, i); again != s {
			t.Fatalf("DeriveSeed not stable at index %d: %d != %d", i, s, again)
		}
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("different bases should derive different seeds")
	}
}

// TestRunDeterministicAcrossWorkerCounts is the core contract: the same
// tasks produce byte-identical serialized results for any pool size.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	mkTasks := func() []Task {
		var tasks []Task
		for i := 0; i < 16; i++ {
			tasks = append(tasks, fakeTask(fmt.Sprintf("t%d", i), DeriveSeed(7, i)))
		}
		return tasks
	}
	serialize := func(results []Result) []byte {
		var b bytes.Buffer
		for _, r := range results {
			fmt.Fprintf(&b, "%s %d\n", r.Name, r.Seed)
			if err := r.Metrics.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes()
	}
	ref, err := Run(context.Background(), mkTasks(), 1)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := serialize(ref)
	for _, workers := range []int{2, 4, 8} {
		got, err := Run(context.Background(), mkTasks(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refBytes, serialize(got)) {
			t.Errorf("workers=%d results differ from workers=1", workers)
		}
	}
}

func TestRunResultsInTaskOrder(t *testing.T) {
	var tasks []Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, fakeTask(fmt.Sprintf("t%d", i), int64(i)))
	}
	results, err := Run(context.Background(), tasks, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(results), len(tasks))
	}
	for i, r := range results {
		if r.Name != tasks[i].Name || r.Seed != tasks[i].Seed {
			t.Errorf("result %d = %s/%d, want %s/%d", i, r.Name, r.Seed, tasks[i].Name, tasks[i].Seed)
		}
	}
}

func TestMapOrderAndValues(t *testing.T) {
	out, err := Map(context.Background(), 50, 8, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestEachErrorPropagation: Each, Map and Run return the failure that
// cancelled the pool, the first in time, whatever its index. In the
// second case task 0 is still running when task 1 fails, and then ends
// with the cancellation, which must not mask the failure.
func TestEachErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name       string
		n, workers int
		fn         func(ctx context.Context, i int) error
	}{
		{"one-fails", 20, 4, func(_ context.Context, i int) error {
			if i == 3 {
				return boom
			}
			return nil
		}},
		{"lower-index-cancelled", 2, 2, func(ctx context.Context, i int) error {
			if i == 1 {
				return boom
			}
			<-ctx.Done()
			return ctx.Err()
		}},
	} {
		ctx := context.Background()
		eachErr := Each(ctx, tc.n, tc.workers, tc.fn)
		_, mapErr := Map(ctx, tc.n, tc.workers, func(ctx context.Context, i int) (int, error) {
			return i, tc.fn(ctx, i)
		})
		tasks := make([]Task, tc.n)
		for i := range tasks {
			tasks[i] = Task{Name: fmt.Sprint(i), Run: func(ctx context.Context, _ int64) (metrics.Snapshot, error) {
				return metrics.Snapshot{}, tc.fn(ctx, i)
			}}
		}
		_, runErr := Run(ctx, tasks, tc.workers)
		for api, err := range map[string]error{"Each": eachErr, "Map": mapErr, "Run": runErr} {
			if !errors.Is(err, boom) || errors.Is(err, context.Canceled) {
				t.Errorf("%s: %s err = %v, want %v", tc.name, api, err, boom)
			}
		}
	}
}

func TestEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Each(ctx, 10, 2, func(ctx context.Context, i int) error {
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunTaskErrorRecorded(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task{
		fakeTask("ok", 1),
		{Name: "bad", Seed: 2, Run: func(context.Context, int64) (metrics.Snapshot, error) {
			return metrics.Snapshot{}, boom
		}},
	}
	results, err := Run(context.Background(), tasks, 2)
	if !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want %v", err, boom)
	}
	if results[0].Err != nil {
		t.Errorf("task ok: unexpected error %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("task bad: err = %v, want %v", results[1].Err, boom)
	}
}

// TestRunCancelledTasksEchoTheirTask: on one worker the first task's
// failure leaves the second unstarted. Its Result still names its task
// and carries the cancellation, not a zero Result that reads as success.
func TestRunCancelledTasksEchoTheirTask(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task{
		{Name: "bad", Seed: 1, Run: func(context.Context, int64) (metrics.Snapshot, error) {
			return metrics.Snapshot{}, boom
		}},
		fakeTask("unstarted", 2),
	}
	results, err := Run(context.Background(), tasks, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want %v", err, boom)
	}
	for i, r := range results {
		if r.Name != tasks[i].Name || r.Seed != tasks[i].Seed {
			t.Errorf("result %d = %s/%d, want %s/%d", i, r.Name, r.Seed, tasks[i].Name, tasks[i].Seed)
		}
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("unstarted task: err = %v, want the cancellation", results[1].Err)
	}
}

func TestMerged(t *testing.T) {
	tasks := []Task{fakeTask("a", 3), fakeTask("b", 4)}
	results, err := Run(context.Background(), tasks, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := Merged(results)
	if got := m.Counter("seen", nil); got != 7 {
		t.Errorf("merged seen = %d, want 7", got)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count should pass through")
	}
	if Workers(0) < 1 {
		t.Error("Workers(0) should resolve to at least 1")
	}
}
