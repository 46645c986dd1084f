package server

import (
	"context"
	"fmt"
	"sync"

	"threadcluster/internal/errs"
)

// jobQueue is the admission-controlled run queue: bounded depth, a
// bounded outstanding-token pool, priority ordering with FIFO within a
// priority level. Admission is non-blocking — a full queue or an
// exhausted pool rejects with errs.ErrOverloaded (the HTTP layer turns
// that into 429 + Retry-After) instead of queueing unboundedly, which is
// what keeps server memory bounded under overload.
//
// Tokens are reserved at admission and released when the job leaves the
// system (terminal state, or still queued at shutdown), not at dequeue,
// so the pool bounds queued *plus* running work.
type jobQueue struct {
	mu        sync.Mutex
	depth     int   // max queued jobs
	maxTokens int64 // max outstanding (queued + running) cost
	tokens    int64 // current outstanding cost
	items     []*job
	wake      chan struct{} // capacity 1; pokes one idle worker
	stop      chan struct{} // closed on queue close
	closed    bool
}

func newJobQueue(depth int, maxTokens int64) *jobQueue {
	return &jobQueue{
		depth:     depth,
		maxTokens: maxTokens,
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
}

// push admits j or rejects it with a reason the metrics distinguish.
// The job's cost must already be set.
func (q *jobQueue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fmt.Errorf("server: %w: admission stopped", errs.ErrUnavailable)
	}
	if len(q.items) >= q.depth {
		return fmt.Errorf("server: %w: queue full (%d jobs)", errs.ErrOverloaded, q.depth)
	}
	if q.tokens+j.cost > q.maxTokens {
		return fmt.Errorf("server: %w: token pool exhausted (%d outstanding + %d requested > %d)",
			errs.ErrOverloaded, q.tokens, j.cost, q.maxTokens)
	}
	q.tokens += j.cost
	q.items = append(q.items, j)
	q.signal()
	return nil
}

// pop blocks until a job is available, the queue closes (nil), or ctx is
// done (nil). Jobs come out highest priority first, admission order
// within a priority.
func (q *jobQueue) pop(ctx context.Context) *job {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			best := 0
			for i, it := range q.items[1:] {
				if it.spec.Priority > q.items[best].spec.Priority ||
					(it.spec.Priority == q.items[best].spec.Priority && it.seq < q.items[best].seq) {
					best = i + 1
				}
			}
			j := q.items[best]
			q.items = append(q.items[:best], q.items[best+1:]...)
			if len(q.items) > 0 {
				q.signal() // more work: poke the next idle worker
			}
			q.mu.Unlock()
			return j
		}
		q.mu.Unlock()
		select {
		case <-q.wake:
		case <-q.stop:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}

// remove takes a queued job out of the queue (cancellation of a job that
// has not started). Reports whether it was present. Does not release
// tokens — the caller settles the job and releases.
func (q *jobQueue) remove(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it == j {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// drain closes admission and returns every job still queued. Workers
// blocked in pop return nil.
func (q *jobQueue) drain() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.stop)
	}
	out := q.items
	q.items = nil
	return out
}

// release returns a settled job's tokens to the pool.
func (q *jobQueue) release(cost int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tokens -= cost
	if q.tokens < 0 {
		q.tokens = 0
	}
}

// stats reports (queued jobs, outstanding tokens) for gauges and the
// Retry-After estimator.
func (q *jobQueue) stats() (int, int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items), q.tokens
}

func (q *jobQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}
