package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"threadcluster/internal/client"
	"threadcluster/internal/errs"
	"threadcluster/internal/server"
)

// Worker is one execution backend the coordinator leases shards to.
// Implementations must be safe for concurrent use: the coordinator
// pings and dispatches from different goroutines.
type Worker interface {
	// Name identifies the worker in events, metrics and rendezvous
	// hashing. Names must be unique within a fleet and stable across
	// coordinator restarts (rendezvous assignment hashes them).
	Name() string
	// Ping probes health; a non-nil error marks the worker down until
	// a later probe succeeds.
	Ping(ctx context.Context) error
	// RunShard executes one shard-scoped JobSpec to completion and
	// returns the per-cell results of its payload, in the spec's Cells
	// order. The spec's Cells field carries full-grid indices, so the
	// cells' names and seeds are exactly what the whole grid would
	// assign. The shard's merged snapshot and digest are not needed:
	// the coordinator merges and digests the whole grid itself.
	RunShard(ctx context.Context, spec server.JobSpec) ([]server.TaskResult, error)
}

// HTTPWorker drives one tcsimd daemon through the typed client:
// submit, follow the event stream to the end, fetch the result.
type HTTPWorker struct {
	name string
	cl   *client.Client
}

// NewHTTPWorker builds a worker for one tcsimd base URL. hc may be nil
// (but must not carry a response timeout: RunShard holds an event
// stream open for the whole shard). backoff configures the submit
// overload retry; pass a zero Backoff to fail fast on 429.
func NewHTTPWorker(name, base string, hc *http.Client, backoff client.Backoff) *HTTPWorker {
	return &HTTPWorker{name: name, cl: client.New(base, hc).WithBackoff(backoff)}
}

// Name returns the worker's fleet-unique name.
func (w *HTTPWorker) Name() string { return w.name }

// Ping probes GET /v1/worker. A draining daemon is reported down: it
// answers HTTP but won't admit new shards, which for leasing purposes
// is the same thing as dead.
func (w *HTTPWorker) Ping(ctx context.Context) error {
	h, err := w.cl.WorkerHealth(ctx)
	if err != nil {
		return err
	}
	if h.Draining {
		return fmt.Errorf("fleet: worker %s: %w: draining", w.name, errs.ErrUnavailable)
	}
	return nil
}

// RunShard submits the shard job and waits it out.
func (w *HTTPWorker) RunShard(ctx context.Context, spec server.JobSpec) ([]server.TaskResult, error) {
	id, err := w.submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	st, err := w.cl.Wait(ctx, id)
	if err != nil {
		return nil, err
	}
	if st.State != server.StateDone {
		return nil, fmt.Errorf("fleet: shard job %q ended %s on %s: %s",
			id, st.State, w.name, st.Error)
	}
	data, err := w.cl.Result(ctx, id)
	if err != nil {
		return nil, err
	}
	tasks, err := decodeShardTasks(data)
	if err != nil {
		return nil, fmt.Errorf("fleet: decoding shard %q result: %w", id, err)
	}
	return tasks, nil
}

// submit submits the shard job and returns the ID it runs under. A
// conflict means the worker already holds a job of that ID: this very
// attempt, if the coordinator resumed after a crash, or a shard of an
// earlier run that reused the job ID. The spec the worker echoes tells
// them apart. The same computation is re-attached (shard results are
// pure functions of the spec, so attaching to the in-flight twin is
// indistinguishable from having submitted it); another one is left
// alone, and the shard goes in under its ID plus its spec's hash.
func (w *HTTPWorker) submit(ctx context.Context, spec server.JobSpec) (string, error) {
	want := specText(spec)
	ids := []string{spec.ID, fmt.Sprintf("%s-%016x", spec.ID, hash64(want))}
	for _, id := range ids {
		spec.ID = id
		_, err := w.cl.Submit(ctx, spec)
		if !errors.Is(err, errs.ErrJobExists) {
			return id, err
		}
		st, err := w.cl.Status(ctx, id)
		if err != nil {
			return "", err
		}
		if specText(st.Spec) == want {
			return id, nil
		}
	}
	return "", fmt.Errorf("fleet: worker %s holds other specs under shard job IDs %q and %q: %w",
		w.name, ids[0], ids[1], errs.ErrJobExists)
}

// decodeShardTasks decodes the per-cell results of a served result
// payload and skips its merged snapshot and digest.
func decodeShardTasks(data []byte) ([]server.TaskResult, error) {
	var p struct {
		Tasks []server.TaskResult `json:"tasks"`
	}
	err := json.Unmarshal(data, &p)
	return p.Tasks, err
}

// workerDown classifies a shard failure as a worker-health signal.
// Transport errors (connection refused, reset, EOF mid-stream) and
// 5xx responses mean the worker itself is suspect; structured 4xx
// rejections mean the worker is healthy and the request was the
// problem. Context cancellation is the coordinator shutting down, not
// a verdict on the worker.
func workerDown(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	return true
}
