package server

import (
	"context"
	"sync"
	"time"
)

// Event types emitted on a job's NDJSON stream, in lifecycle order:
// queued, running, one task event per grid cell as it completes, then
// exactly one terminal event (done, failed, canceled, or shutdown when
// the server drains out from under the stream).
const (
	EventQueued   = "queued"
	EventRunning  = "running"
	EventTask     = "task"
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
	EventShutdown = "shutdown"
)

// Event is one line of a job's progress stream. Timestamps come from the
// server Clock and are operational only: nothing on this stream is part
// of the deterministic result payload, and task events may arrive in any
// completion order under a concurrent sweep pool (the payload re-orders
// results into grid order).
type Event struct {
	// Seq numbers events per job contiguously from 0.
	Seq int `json:"seq"`
	// Time is the server's wall-clock timestamp for the event.
	Time time.Time `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Job is the owning job's ID.
	Job string `json:"job"`

	// Task names the completed grid cell on task events.
	Task string `json:"task,omitempty"`
	// TasksDone / TasksTotal track progress on task and terminal events.
	TasksDone  int `json:"tasks_done,omitempty"`
	TasksTotal int `json:"tasks_total,omitempty"`
	// Cycles, Insts and Ops are the completed cell's headline metric
	// deltas (that task's snapshot counters).
	Cycles uint64 `json:"cycles,omitempty"`
	Insts  uint64 `json:"insts,omitempty"`
	Ops    uint64 `json:"ops,omitempty"`
	// Error carries the cause on failed/canceled events.
	Error string `json:"error,omitempty"`
	// Digest is the result payload digest on done events.
	Digest string `json:"digest,omitempty"`
}

// eventLog is a job's whole event history plus broadcast: every append
// is kept, and wakes all blocked subscribers by closing the current
// update channel. A subscriber replays the history from Seq 0, then
// follows live; after close it drains and ends. A job emits one event
// per grid cell plus three lifecycle events, so the history is O(cells),
// like the results the job already holds.
type eventLog struct {
	mu      sync.Mutex
	events  []Event // events[i].Seq == i
	closed  bool
	updated chan struct{}
}

func newEventLog() *eventLog {
	return &eventLog{updated: make(chan struct{})}
}

// append stamps ev with the next sequence number and publishes it. After
// close, appends are dropped silently (the terminal event is final).
func (l *eventLog) append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	close(l.updated)
	l.updated = make(chan struct{})
}

// closeLog marks the stream complete and wakes subscribers so they can
// drain and finish. Idempotent. The closed update channel stays: nothing
// is published after close, and a subscriber that sees the log closed
// never waits on it.
func (l *eventLog) closeLog() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.updated)
}

// snapshotFrom returns the events with Seq >= cursor, the channel that
// will signal the next append, and whether the log is closed. The slice
// shares the log's array without a copy: an append never writes below
// len(events), and the clipped capacity keeps the caller from doing so.
func (l *eventLog) snapshotFrom(cursor int) ([]Event, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.events)
	return l.events[min(cursor, n):n:n], l.updated, l.closed
}

// subscribe streams events to fn from Seq 0 until the log closes, ctx is
// cancelled, or fn errors. fn runs without the log lock held.
func (l *eventLog) subscribe(ctx context.Context, fn func(Event) error) error {
	cursor := 0
	for {
		evs, updated, closed := l.snapshotFrom(cursor)
		for _, ev := range evs {
			if err := fn(ev); err != nil {
				return err
			}
			cursor = ev.Seq + 1
		}
		if closed {
			return nil
		}
		select {
		case <-updated:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
