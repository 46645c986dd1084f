package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/errs"
	"threadcluster/internal/metrics"
	"threadcluster/internal/server"
)

// fixture is a started job server behind httptest plus a client on it.
type fixture struct {
	srv *server.Server
	cl  *client.Client
}

func newFixture(t *testing.T, opt server.Options) *fixture {
	t.Helper()
	if opt.Clock == nil {
		opt.Clock = server.NewFakeClock(time.Unix(1_700_000_000, 0).UTC())
	}
	s, err := server.New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := s.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	return &fixture{srv: s, cl: client.New(ts.URL, ts.Client())}
}

func spec(id string) server.JobSpec {
	return server.JobSpec{
		ID:            id,
		Workloads:     []string{"microbenchmark"},
		Policies:      []string{"default"},
		Topos:         []string{"open720"},
		Seed:          7,
		WarmRounds:    2,
		EngineRounds:  4,
		MeasureRounds: 4,
	}
}

func TestClientRoundTrip(t *testing.T) {
	f := newFixture(t, server.Options{})
	ctx := context.Background()

	st, err := f.cl.Submit(ctx, spec("rt"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "rt" || st.State != server.StateQueued {
		t.Fatalf("admitted status %+v, want queued rt", st)
	}
	final, err := f.cl.Wait(ctx, "rt")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != server.StateDone {
		t.Fatalf("state %s (err %q), want done", final.State, final.Error)
	}
	data, err := f.cl.Result(ctx, "rt")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var payload server.ResultPayload
	if err := json.Unmarshal(data, &payload); err != nil {
		t.Fatalf("decoding result payload: %v", err)
	}
	if len(payload.Tasks) != 1 || payload.Digest != final.Digest {
		t.Fatalf("payload %+v inconsistent with status digest %s", payload, final.Digest)
	}
	if payload.Tasks[0].Metrics.Counter("sim_ops_total", nil) == 0 {
		t.Fatal("decoded payload lost its metrics snapshot")
	}
	jobs, err := f.cl.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("Jobs = %v (err %v), want one entry", jobs, err)
	}
	text, err := f.cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if err := metrics.CheckPrometheusText(text); err != nil {
		t.Fatalf("metrics exposition invalid: %v", err)
	}
	if err := f.cl.Ready(ctx); err != nil {
		t.Fatalf("Ready: %v", err)
	}
}

// TestClientErrorsCarrySentinels checks the wire round-trip of the error
// taxonomy: errors.Is sees the same sentinel the server classified.
func TestClientErrorsCarrySentinels(t *testing.T) {
	f := newFixture(t, server.Options{})
	ctx := context.Background()

	if _, err := f.cl.Status(ctx, "ghost"); !errors.Is(err, errs.ErrJobNotFound) {
		t.Fatalf("Status(ghost) = %v, want ErrJobNotFound", err)
	}
	bad := spec("bad")
	bad.Workloads = nil
	if _, err := f.cl.Submit(ctx, bad); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("Submit(bad) = %v, want ErrBadConfig", err)
	}
	var apiErr *client.APIError
	if _, err := f.cl.Submit(ctx, bad); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("Submit(bad) = %v, want APIError with status 400", err)
	}
}

// TestClientSoak is the load harness: many concurrent submitters push
// identical grids through a parallel server, tolerating overload
// rejections, and every job that completes must return the byte-identical
// payload. Exercises admission control, the worker pool, streaming and
// the result path under real HTTP concurrency.
func TestClientSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness runs many jobs")
	}
	f := newFixture(t, server.Options{
		QueueDepth: 8,
		JobWorkers: 4,
		// A modest pool so the burst provokes real 429s.
		MaxJobCost:    1_000,
		MaxQueuedCost: 4_000,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const (
		submitters = 8
		perWorker  = 6
	)
	var (
		mu       sync.Mutex
		payloads = map[string]string{}
		accepted int
		rejected int
	)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := strings.Join([]string{"soak", string(rune('a' + w)), string(rune('0' + i))}, "-")
				_, err := f.cl.Submit(ctx, spec(id))
				if err != nil {
					var apiErr *client.APIError
					if errors.Is(err, errs.ErrOverloaded) && errors.As(err, &apiErr) {
						if apiErr.RetryAfterSeconds < 1 {
							t.Errorf("%s: overload without Retry-After hint", id)
							return
						}
						mu.Lock()
						rejected++
						mu.Unlock()
						// Back off as instructed, then drop this job: the
						// soak measures robustness, not completion count.
						select {
						case <-time.After(50 * time.Millisecond):
						case <-ctx.Done():
						}
						continue
					}
					t.Errorf("Submit %s: %v", id, err)
					return
				}
				st, err := f.cl.Wait(ctx, id)
				if err != nil {
					t.Errorf("Wait %s: %v", id, err)
					return
				}
				if st.State != server.StateDone {
					t.Errorf("%s state %s (err %q), want done", id, st.State, st.Error)
					return
				}
				data, err := f.cl.Result(ctx, id)
				if err != nil {
					t.Errorf("Result %s: %v", id, err)
					return
				}
				mu.Lock()
				payloads[id] = string(data)
				accepted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if accepted == 0 {
		t.Fatal("soak accepted no jobs at all")
	}
	var reference string
	for id, p := range payloads {
		if reference == "" {
			reference = p
			continue
		}
		if p != reference {
			t.Fatalf("%s: payload differs under load — determinism broke across the wire", id)
		}
	}
	t.Logf("soak: %d completed, %d overload-rejected", accepted, rejected)
}

// TestClientEventStreamCancel detaches a subscriber via ctx while the
// job is still running; the client must surface ctx.Err.
func TestClientEventStreamCancel(t *testing.T) {
	f := newFixture(t, server.Options{MaxJobCost: 100_000_000})
	long := spec("long")
	long.EngineRounds = 50_000_000
	ctx := context.Background()
	if _, err := f.cl.Submit(ctx, long); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sctx, scancel := context.WithCancel(ctx)
	errc := make(chan error, 1)
	go func() {
		errc <- f.cl.Events(sctx, "long", func(ev server.Event) error {
			if ev.Type == server.EventRunning {
				scancel()
			}
			return nil
		})
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Events = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("event stream did not unwind on ctx cancel")
	}
	if _, err := f.cl.Cancel(ctx, "long"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
}
