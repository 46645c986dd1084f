package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/fleet"
	"threadcluster/internal/server"
)

// systemClock feeds wall time to the in-process daemons and coordinator;
// cmd/ is the wall-clock allowlist boundary, as in cmd/tcsimd.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// daemon is an in-process tcsimd: the job server behind a real HTTP
// listener on the loopback interface, so that requests pay the whole
// client and server path.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

// startDaemon starts a daemon on an ephemeral loopback port. taskWorkers
// is the per-job sweep pool (0 = the server default, GOMAXPROCS);
// everything else is the default server.Options.
func startDaemon(ctx context.Context, taskWorkers int) (*daemon, error) {
	srv, err := server.New(server.Options{Clock: systemClock{}, TaskWorkers: taskWorkers})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(context.WithoutCancel(ctx)); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // returns ErrServerClosed at stop
	}()
	return d, nil
}

// stop drains the job server, closes the listener and waits for the
// serving goroutine to end.
func (d *daemon) stop(ctx context.Context) error {
	err := d.srv.Shutdown(ctx)
	if herr := d.http.Shutdown(ctx); err == nil {
		err = herr
	}
	<-d.done
	return err
}

// newHTTPClient is a keep-alive client without a response timeout (event
// streams stay open for a whole job) and with enough idle connections
// for P closed-loop callers.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16}}
}

// lockedBuffer is the fleet coordinator's event sink: the coordinator
// serializes its own writes, the lock orders them against the reader.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// events decodes and drains the NDJSON stream written so far.
func (b *lockedBuffer) events() ([]fleet.Event, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []fleet.Event
	dec := json.NewDecoder(&b.buf)
	for dec.More() {
		var ev fleet.Event
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("parsing fleet event: %w", err)
		}
		out = append(out, ev)
	}
	b.buf.Reset()
	return out, nil
}

// fleetRig is P loopback daemons under one coordinator.
type fleetRig struct {
	daemons []*daemon
	hc      *http.Client
	coord   *fleet.Coordinator
	events  *lockedBuffer // nil on an untraced pass
}

// startFleet starts p daemons, probes each until it answers, and builds
// the coordinator over them with default fleet.Options. A traced pass
// collects the coordinator's event stream.
func startFleet(ctx context.Context, p, taskWorkers int, traced bool, seed int64) (*fleetRig, error) {
	rig := &fleetRig{hc: newHTTPClient()}
	var workers []fleet.Worker
	for i := 0; i < p; i++ {
		d, err := startDaemon(ctx, taskWorkers)
		if err != nil {
			rig.stop(ctx)
			return nil, err
		}
		rig.daemons = append(rig.daemons, d)
		w := fleet.NewHTTPWorker(fmt.Sprintf("w%d", i), d.url, rig.hc, client.Backoff{Retries: 3, Seed: seed + int64(i)})
		if err := w.Ping(ctx); err != nil {
			rig.stop(ctx)
			return nil, fmt.Errorf("probing daemon %d: %w", i, err)
		}
		workers = append(workers, w)
	}
	opt := fleet.Options{Clock: systemClock{}}
	if traced {
		rig.events = &lockedBuffer{}
		opt.Events = rig.events
	}
	coord, err := fleet.New(workers, opt)
	if err != nil {
		rig.stop(ctx)
		return nil, err
	}
	rig.coord = coord
	return rig, nil
}

// stop shuts every daemon down and drops the idle connections.
func (r *fleetRig) stop(ctx context.Context) {
	for _, d := range r.daemons {
		_ = d.stop(ctx) // nothing is queued or running at stop; the error has no reader
	}
	r.hc.CloseIdleConnections()
}
