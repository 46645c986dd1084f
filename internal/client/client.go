// Package client is a thin typed client for the tcsimd job service
// (internal/server). It speaks the /v1 JSON API, maps the structured
// error bodies back onto the errs sentinels the server classified them
// from — errors.Is works identically on both sides of the wire — and
// streams NDJSON progress events. Every method is ctx-first. The one
// retry the client performs itself is the one the server explicitly
// invites: a Submit rejected 429 honors the Retry-After hint with a
// deterministic, seed-derived jittered backoff when a Backoff is
// configured (WithBackoff); everything else carries the hint out
// (APIError.RetryAfterSeconds) for the caller's policy.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// Client talks to one tcsimd base URL, e.g. "http://127.0.0.1:8321".
type Client struct {
	base    string
	hc      *http.Client
	backoff Backoff
}

// New builds a client for base. hc may be nil for http.DefaultClient;
// pass a client without timeouts when streaming events (the stream stays
// open for the whole job — bound it with ctx instead).
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Backoff configures Submit's overload retry. The delay schedule is a
// pure function of (Seed, attempt) and the server's Retry-After hints —
// no wall clock, no global randomness — so a retried submission is as
// replayable as everything else in the system: two clients with the
// same seed back off identically, while different seeds (the jitter)
// keep a thundering herd from re-converging on the server.
type Backoff struct {
	// Retries is the number of re-submissions after the first 429.
	// 0 disables retrying (the zero Backoff is the old fail-fast client).
	Retries int
	// Seed derives the jitter; callers typically pass the job's seed.
	Seed int64
	// Base is the delay when the server sent no Retry-After hint.
	// Default 1s.
	Base time.Duration
	// Max caps any single delay. Default 60s.
	Max time.Duration
	// Sleep waits out one backoff delay; nil uses a ctx-aware timer.
	// Tests inject it to observe the schedule without sleeping.
	Sleep func(ctx context.Context, d time.Duration) error
}

// WithBackoff returns the client with the Submit overload-retry policy
// installed (chainable: client.New(...).WithBackoff(...)).
func (c *Client) WithBackoff(b Backoff) *Client {
	c.backoff = b
	return c
}

// delay computes the attempt'th backoff: the server's hint (or Base),
// scaled by a deterministic jitter in [1.0, 1.5) derived from the seed
// and attempt index, clamped to Max.
func (b Backoff) delay(attempt, hintSeconds int) time.Duration {
	d := b.Base
	if d <= 0 {
		d = time.Second
	}
	if hintSeconds > 0 {
		d = time.Duration(hintSeconds) * time.Second
	}
	// sweep.DeriveSeed is a SplitMix64 finalizer: uniform enough for
	// jitter and already seed-provenance-clean under the lint suite.
	j := uint64(sweep.DeriveSeed(b.Seed, attempt)) % 1024
	d += time.Duration(uint64(d) * j / 2048)
	max := b.Max
	if max <= 0 {
		max = 60 * time.Second
	}
	if d > max {
		d = max
	}
	return d
}

// sleep waits out d via the injected Sleep, or a ctx-aware timer.
func (b Backoff) sleep(ctx context.Context, d time.Duration) error {
	if b.Sleep != nil {
		return b.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// APIError is a non-2xx response: the HTTP status, the server's stable
// error code and message, and the Retry-After hint on overload. Unwrap
// yields the errs sentinel matching the code, so
// errors.Is(err, errs.ErrOverloaded) works across the wire.
type APIError struct {
	Status            int
	Code              string
	Message           string
	RetryAfterSeconds int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d %s: %s", e.Status, e.Code, e.Message)
}

// Unwrap maps the wire code back onto its errs sentinel.
func (e *APIError) Unwrap() error { return server.SentinelForCode(e.Code) }

// do issues one request and decodes an error body on non-2xx.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	apiErr := &APIError{Status: resp.StatusCode, Code: "internal", Message: string(data)}
	var eb server.ErrorBody
	if err := json.Unmarshal(data, &eb); err == nil && eb.Error.Code != "" {
		apiErr.Code = eb.Error.Code
		apiErr.Message = eb.Error.Message
		apiErr.RetryAfterSeconds = eb.Error.RetryAfterSeconds
	}
	return nil, apiErr
}

// decode runs a request and unmarshals the response body into out.
func (c *Client) decode(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Submit admits spec and returns the queued job's status. When a
// Backoff is configured (WithBackoff), a 429 rejection is retried up to
// Retries times, honoring the server's Retry-After hint with the
// deterministic jittered schedule; a 429 is a pure rejection, so the
// retry can never double-submit. All other errors return immediately.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	for attempt := 0; ; attempt++ {
		var st server.JobStatus
		err := c.decode(ctx, http.MethodPost, "/v1/jobs", spec, &st)
		if err == nil || attempt >= c.backoff.Retries {
			return st, err
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
			return st, err
		}
		if serr := c.backoff.sleep(ctx, c.backoff.delay(attempt, ae.RetryAfterSeconds)); serr != nil {
			return server.JobStatus{}, fmt.Errorf("client: backing off overloaded submit: %w", serr)
		}
	}
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.decode(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists every job the server knows, in admission order.
func (c *Client) Jobs(ctx context.Context) ([]server.JobStatus, error) {
	var out []server.JobStatus
	err := c.decode(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.decode(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a done job's canonical payload bytes — byte-identical
// across replicas and across offline `tcsim sweep` runs of the same spec.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// The server declares the payload's length, so it is read into one
	// buffer of that size; a body of unknown length is read whole.
	var data []byte
	if n := resp.ContentLength; n >= 0 && n <= maxResultPrealloc {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, fmt.Errorf("client: reading result: %w", err)
	}
	return data, nil
}

// maxResultPrealloc caps the buffer Result allocates on a declared
// length's word alone; a longer payload is read as it arrives.
const maxResultPrealloc = 64 << 20

// Events streams the job's NDJSON progress events to fn, replaying
// retained history first, until the stream's terminal event, ctx
// cancellation, or an fn error.
func (c *Client) Events(ctx context.Context, id string, fn func(server.Event) error) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Event lines are a few hundred bytes: start the scanner at 4 KB and
	// let it grow to 1 MB for a longer one.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 1<<20)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("client: parsing event line %q: %w", sc.Text(), err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		// Surface ctx cancellation as such rather than as a transport error.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		return fmt.Errorf("client: reading event stream: %w", err)
	}
	return nil
}

// Wait follows the job's event stream to its end and returns the final
// status. A job drained away by a server shutdown is still queued on the
// server (and spooled); Wait reports that as ErrUnavailable.
func (c *Client) Wait(ctx context.Context, id string) (server.JobStatus, error) {
	if err := c.Events(ctx, id, func(server.Event) error { return nil }); err != nil {
		return server.JobStatus{}, err
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		return server.JobStatus{}, err
	}
	if !st.State.Final() {
		return st, fmt.Errorf("client: %w: job %q drained before completing", errs.ErrUnavailable, id)
	}
	return st, nil
}

// Metrics fetches the raw Prometheus exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: reading metrics: %w", err)
	}
	return string(data), nil
}

// WorkerHealth fetches the worker's capacity signal (GET /v1/worker):
// the probe a fleet coordinator reads before leasing shards here.
func (c *Client) WorkerHealth(ctx context.Context) (server.WorkerHealth, error) {
	var h server.WorkerHealth
	err := c.decode(ctx, http.MethodGet, "/v1/worker", nil, &h)
	return h, err
}

// Ready probes /readyz: nil when the server admits jobs.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, "/readyz", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
