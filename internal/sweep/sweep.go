// Package sweep runs N independent simulation configurations across a
// bounded worker pool. Each task builds and drives its own sim.Machine,
// so runs share no mutable state and the per-task results — including
// their metrics snapshots — are byte-identical whether the sweep runs on
// one worker or on GOMAXPROCS workers; only wall-clock changes. That
// property is what lets experiment suites and the `tcsim sweep`
// subcommand parallelize freely without giving up reproducibility.
//
// Determinism contract: a task's seed is derived from the sweep's base
// seed and the task's index (DeriveSeed), never from time, goroutine
// identity or completion order; results are returned in task order.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"threadcluster/internal/metrics"
	"threadcluster/internal/rng"
)

// Task is one independent run of a sweep.
type Task struct {
	// Name identifies the configuration ("volano/clustered/open720").
	Name string
	// Seed is the run's deterministic seed (see DeriveSeed).
	Seed int64
	// Run executes the configuration and returns its metrics snapshot.
	// It must build its own machine: tasks share nothing.
	Run func(ctx context.Context, seed int64) (metrics.Snapshot, error)
}

// Result is one task's outcome.
type Result struct {
	// Name and Seed echo the task.
	Name string
	Seed int64
	// Metrics is the run's snapshot (zero when Err is set).
	Metrics metrics.Snapshot
	// Err is the task's failure, if any.
	Err error
}

// DeriveSeed maps (seed, task index) to a per-run seed: rng.Derive, the
// one stream-derivation function in the tree. Deterministic by
// construction: the schedule of workers never enters into it.
func DeriveSeed(seed int64, index int) int64 { return rng.Derive(seed, index) }

// Workers resolves a worker-count request: n > 0 is used as given,
// anything else means GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every task on a pool of workers (Workers(workers)) and
// returns the results in task order, each echoing its task's Name and
// Seed. A task failure is recorded in its Result; the first failure also
// cancels the remaining unstarted tasks, whose Err becomes the
// cancellation. Run itself returns that first failure, as Each does, or
// ctx's error if the caller cancelled.
func Run(ctx context.Context, tasks []Task, workers int) ([]Result, error) {
	results := make([]Result, len(tasks))
	for i, t := range tasks {
		results[i] = Result{Name: t.Name, Seed: t.Seed}
	}
	errs, err := each(ctx, len(tasks), workers, func(ctx context.Context, i int) error {
		snap, err := tasks[i].Run(ctx, tasks[i].Seed)
		if err != nil {
			return fmt.Errorf("sweep: task %s: %w", tasks[i].Name, err)
		}
		results[i].Metrics = snap
		return nil
	})
	for i, err := range errs {
		results[i].Err = err
	}
	return results, err
}

// Merged folds the successful results' snapshots into one machine-wide
// view (counters add; see metrics.Snapshot.Merge).
func Merged(results []Result) metrics.Snapshot {
	snaps := make([]metrics.Snapshot, 0, len(results))
	for _, r := range results {
		if r.Err == nil {
			snaps = append(snaps, r.Metrics)
		}
	}
	return metrics.MergeAll(snaps)
}

// Map runs fn for indices [0, n) on a bounded worker pool and returns
// the collected values in index order. The first error cancels the pool
// (in-flight calls finish; unstarted indices are skipped) and is
// returned. Workers(workers) resolves the pool size.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Each(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Each runs fn for indices [0, n) on a bounded worker pool. The first
// error in time cancels remaining unstarted indices and is returned,
// whatever its index: a call at a lower index that then ends with the
// cancellation does not mask it.
func Each(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	_, err := each(ctx, n, workers, fn)
	return err
}

// each is Each that also returns every index's error: fn's, or the
// cancellation for an index it never started.
func each(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) ([]error, error) {
	if n == 0 {
		return nil, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var first error // the first error in time, the one that cancelled the pool
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				err := ctx.Err()
				if err == nil {
					err = fn(ctx, i)
				}
				if err != nil {
					errs[i] = err
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	return errs, first
}
