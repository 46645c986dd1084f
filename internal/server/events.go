package server

import (
	"context"
	"sync"
	"time"

	"threadcluster/internal/metrics"
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
	// Seq numbers events per job from 0; gaps mean the ring dropped
	// events before this subscriber attached (see Dropped).
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

// eventLog is a per-job bounded event history plus broadcast: appends
// retain the last cap events (older ones are dropped and counted), and
// every append wakes all blocked subscribers by closing the current
// update channel. A subscriber replays whatever is retained from the
// earliest event on, then follows live; after close it drains and ends.
//
// A full log drops its oldest event by advancing start, and slides the
// window back to the front of the slice only once start reaches the
// capacity: one copy of capacity events per capacity appends, so an
// append costs O(1) amortised however long the job runs.
type eventLog struct {
	mu       sync.Mutex
	capacity int
	events   []Event // the retained window is events[start:]; events[start+i].Seq == firstSeq+i
	start    int
	firstSeq int
	nextSeq  int
	dropped  int
	closed   bool
	updated  chan struct{}

	droppedTotal *metrics.Counter // server-wide drop counter (may be nil)
}

func newEventLog(capacity int, droppedTotal *metrics.Counter) *eventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &eventLog{
		capacity:     capacity,
		updated:      make(chan struct{}),
		droppedTotal: droppedTotal,
	}
}

// append stamps ev with the next sequence number and publishes it. After
// close, appends are dropped silently (the terminal event is final).
func (l *eventLog) append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev.Seq = l.nextSeq
	l.nextSeq++
	l.events = append(l.events, ev)
	if len(l.events)-l.start > l.capacity {
		l.start++
		l.firstSeq++
		l.dropped++
		if l.droppedTotal != nil {
			l.droppedTotal.Inc()
		}
		if l.start == l.capacity {
			n := copy(l.events, l.events[l.start:])
			clear(l.events[n:])
			l.events = l.events[:n]
			l.start = 0
		}
	}
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

// snapshotFrom returns the retained events with Seq >= cursor, the
// channel that will signal the next append, and whether the log is
// closed.
func (l *eventLog) snapshotFrom(cursor int) ([]Event, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Events before firstSeq were dropped; resume at the oldest retained.
	start := l.start + max(cursor-l.firstSeq, 0)
	var out []Event
	if start < len(l.events) {
		out = append(out, l.events[start:]...)
	}
	return out, l.updated, l.closed
}

// subscribe streams events to fn from the earliest retained event until
// the log closes, ctx is cancelled, or fn errors. fn runs without the
// log lock held.
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

// Dropped reports how many early events the ring discarded.
func (l *eventLog) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
