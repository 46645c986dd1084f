package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// killableWorker is a real internal/server instance behind httptest
// with a kill switch: once killed it drops every open connection and
// answers further requests 503, which is what a SIGKILLed tcsimd looks
// like to the coordinator (transport errors, then refused probes).
type killableWorker struct {
	name string
	srv  *server.Server
	ts   *httptest.Server
	dead atomic.Bool
}

func startKillableWorker(t *testing.T, name string) *killableWorker {
	t.Helper()
	srv, err := server.New(server.Options{
		Clock:      server.NewFakeClock(time.Unix(1_700_000_000, 0).UTC()),
		JobWorkers: 2,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	kw := &killableWorker{name: name, srv: srv}
	h := srv.Handler()
	kw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if kw.dead.Load() {
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		kw.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return kw
}

// kill simulates SIGKILL: in-flight streams break mid-read and the
// endpoint turns into a 503 wall.
func (kw *killableWorker) kill() {
	kw.dead.Store(true)
	kw.ts.CloseClientConnections()
}

// killOnDone triggers kill functions when the Nth shard_done event
// crosses the stream — a deterministic schedule expressed in units of
// job progress rather than wall time.
type killOnDone struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	count int
	kills map[int]func()
}

func (k *killOnDone) Write(p []byte) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.buf.Write(p)
	if bytes.Contains(p, []byte(`"type":"shard_done"`)) {
		k.count++
		if fn := k.kills[k.count]; fn != nil {
			fn()
		}
	}
	return len(p), nil
}

func (k *killOnDone) String() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.buf.String()
}

// TestFleetDigestMatchesOffline is the tentpole's differential test:
// the same spec coordinated over fleets of 1, 2 and 5 real workers —
// with seed-derived worker-kill schedules striking mid-sweep on the
// multi-worker fleets — produces payload bytes and digest identical
// to the offline single-node run. Runs under -race in CI.
func TestFleetDigestMatchesOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("differential determinism test runs full grids")
	}
	spec := testSpec("") // derived ID keeps runs independent per size via fresh spools
	want, wantDigest := offlinePayload(t, spec)

	for _, size := range []int{1, 2, 5} {
		size := size
		t.Run(fmt.Sprintf("fleet-%d", size), func(t *testing.T) {
			workers := make([]Worker, 0, size)
			kws := make([]*killableWorker, 0, size)
			for i := 0; i < size; i++ {
				kw := startKillableWorker(t, fmt.Sprintf("w%d", i))
				kws = append(kws, kw)
				backoff := client.Backoff{Retries: 3, Seed: spec.Seed + int64(i), Base: time.Millisecond}
				workers = append(workers, NewHTTPWorker(kw.name, kw.ts.URL, nil, backoff))
			}

			// Kill schedule: a pure function of (seed, fleet size).
			// Worker 0 always survives so the job can finish.
			killer := &killOnDone{kills: map[int]func(){}}
			if size > 1 {
				r := uint64(sweep.DeriveSeed(spec.Seed, size))
				victims := 1 + int(r%2) // 1 or 2 kills
				for i := 0; i < victims && i < size-1; i++ {
					v := 1 + int(uint64(sweep.DeriveSeed(spec.Seed, size*10+i))%uint64(size-1))
					kw := kws[v]
					killer.kills[i+1] = func() { kw.kill() }
				}
			}

			opt := fastOptions()
			opt.MaxAttempts = 10
			opt.Events = killer
			c, err := New(workers, opt)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			payload, got, err := c.Run(context.Background(), spec)
			if err != nil {
				t.Fatalf("Run (fleet %d): %v\nevents:\n%s", size, err, killer.String())
			}
			if payload.Digest != wantDigest {
				t.Fatalf("fleet %d digest %s, want %s", size, payload.Digest, wantDigest)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fleet %d payload bytes differ from offline", size)
			}
		})
	}
}

// TestFleetRerunUnderReusedID: a worker keeps the shard jobs of every
// run, so a rerun under the same job ID but of another spec — more
// measured rounds, then a grid grown by a workload — must run its own
// shards rather than attach to the earlier run's: each run returns its
// own offline payload. A rerun of the first spec attaches to its jobs
// and submits none. Shard jobs that meet no conflict keep the plain
// <job>-<shard>-a<n> ID that traces join the daemon's runs on.
func TestFleetRerunUnderReusedID(t *testing.T) {
	kw := startKillableWorker(t, "w0")
	worker := NewHTTPWorker(kw.name, kw.ts.URL, nil, client.Backoff{})
	cl := client.New(kw.ts.URL, nil)
	first := testSpec("reused")
	first.Workloads = []string{"microbenchmark"}
	longer := first
	longer.MeasureRounds = 12
	grown := longer
	grown.Workloads = []string{"microbenchmark", "volano"}
	plain := regexp.MustCompile(`^reused-s[0-9]+-a[0-9]+$`)
	held := 0
	for i, spec := range []server.JobSpec{first, longer, grown, first} {
		want, wantDigest := offlinePayload(t, spec)
		c, err := New([]Worker{worker}, fastOptions())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		payload, got, err := c.Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if payload.Digest != wantDigest || !bytes.Equal(got, want) {
			t.Fatalf("run %d under the reused ID: digest %s, want its own %s", i, payload.Digest, wantDigest)
		}
		jobs, err := cl.Jobs(context.Background())
		if err != nil {
			t.Fatalf("Jobs: %v", err)
		}
		switch i {
		case 0:
			for _, j := range jobs {
				if !plain.MatchString(j.ID) {
					t.Errorf("first run's shard job ID %q, want <job>-<shard>-a<n>", j.ID)
				}
			}
		case 3:
			if len(jobs) != held {
				t.Errorf("rerun of the first spec submitted %d shard jobs, want it to attach to its own", len(jobs)-held)
			}
		default:
			if len(jobs) == held {
				t.Errorf("run %d submitted no shard job of its own", i)
			}
		}
		held = len(jobs)
	}
}
