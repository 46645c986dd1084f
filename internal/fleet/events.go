package fleet

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"threadcluster/internal/server"
)

// Event types the coordinator emits on its NDJSON stream, one JSON
// object per line. The stream is operational output: timestamps come
// from the injected Clock and nothing in it feeds the result payload.
const (
	// EventPhase marks a phase transition: plan -> run -> merge.
	EventPhase = "phase"
	// EventShardLeased: a pending shard was dispatched to a worker.
	EventShardLeased = "shard_leased"
	// EventShardDone: a shard's payload was accepted and scattered.
	EventShardDone = "shard_done"
	// EventShardRetry: an attempt failed; unless another attempt is
	// still running, the shard is re-leased after a backoff.
	EventShardRetry = "shard_retry"
	// EventShardSteal: a running shard whose newest attempt outlived
	// its straggler timer was given a duplicate attempt; the earlier
	// attempts keep running and the first completion wins (shard
	// results are pure).
	EventShardSteal = "shard_steal"
	// EventWorkerDown / EventWorkerUp track health transitions.
	EventWorkerDown = "worker_down"
	EventWorkerUp   = "worker_up"
	// EventProgress reports cell/shard completion, decile-filtered:
	// only emitted when overall cell progress crosses a 10% boundary,
	// so a 10k-cell sweep logs 10 progress lines, not 10k.
	EventProgress = "progress"
	// EventDone / EventFailed are terminal.
	EventDone   = "done"
	EventFailed = "failed"
)

// Event is one line of the coordinator's NDJSON stream.
type Event struct {
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	Job  string    `json:"job"`
	// Phase is the coordinator phase the event belongs to.
	Phase string `json:"phase,omitempty"`
	// Shard names the virtual-ring slot, "s<slot>" (a string so slot 0
	// survives omitempty).
	Shard string `json:"shard,omitempty"`
	// Worker is the worker the event concerns.
	Worker string `json:"worker,omitempty"`
	// Attempt is the shard's dispatch count, 1-based.
	Attempt int `json:"attempt,omitempty"`
	// CellsDone/CellsTotal and ShardsDone/ShardsTotal carry progress.
	CellsDone   int `json:"cells_done,omitempty"`
	CellsTotal  int `json:"cells_total,omitempty"`
	ShardsDone  int `json:"shards_done,omitempty"`
	ShardsTotal int `json:"shards_total,omitempty"`
	// Error carries the cause on retry/failure events.
	Error string `json:"error,omitempty"`
	// Digest is the payload digest on the done event.
	Digest string `json:"digest,omitempty"`
}

// eventSink serializes events onto one writer. Write errors are
// swallowed: the stream is observability, and a full disk must not
// fail a job whose results are fine.
type eventSink struct {
	mu         sync.Mutex
	enc        *json.Encoder
	clock      server.Clock
	job        string
	phase      string
	lastDecile int
}

func newEventSink(w io.Writer, clock server.Clock, job string) *eventSink {
	s := &eventSink{clock: clock, job: job, lastDecile: -1}
	if w != nil {
		s.enc = json.NewEncoder(w)
	}
	return s
}

// setPhase records the current phase and emits the transition.
func (s *eventSink) setPhase(phase string) {
	s.mu.Lock()
	s.phase = phase
	s.mu.Unlock()
	s.emit(Event{Type: EventPhase})
}

// emit stamps and writes one event. Nil-writer sinks still track phase
// state so the coordinator code never branches on "events enabled".
func (s *eventSink) emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		return
	}
	ev.Time = s.clock.Now().UTC()
	ev.Job = s.job
	if ev.Phase == "" {
		ev.Phase = s.phase
	}
	_ = s.enc.Encode(ev)
}

// progress emits a progress event only when overall cell completion
// crossed into a new decile — the significance filter that keeps the
// stream proportional to the job, not to the grid.
func (s *eventSink) progress(cellsDone, cellsTotal, shardsDone, shardsTotal int) {
	if cellsTotal <= 0 {
		return
	}
	decile := cellsDone * 10 / cellsTotal
	s.mu.Lock()
	crossed := decile > s.lastDecile
	if crossed {
		s.lastDecile = decile
	}
	s.mu.Unlock()
	if !crossed {
		return
	}
	s.emit(Event{
		Type:        EventProgress,
		CellsDone:   cellsDone,
		CellsTotal:  cellsTotal,
		ShardsDone:  shardsDone,
		ShardsTotal: shardsTotal,
	})
}
