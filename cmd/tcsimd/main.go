// Command tcsimd is the simulation-job daemon: it serves the
// internal/server HTTP API, executing policy x topology x workload sweep
// jobs on the deterministic sweep pool and exposing Prometheus metrics.
//
// Usage:
//
//	tcsimd                                  # serve on 127.0.0.1:8321
//	tcsimd -addr :9000 -job-workers 4
//	tcsimd -spool /var/lib/tcsimd/spool     # persist unfinished jobs across restarts
//
// Endpoints (see internal/server.Handler): POST /v1/jobs submits a
// JobSpec, GET /v1/jobs/{id}/events streams the job's NDJSON progress
// (every event it has emitted from seq 0, then live), GET
// /v1/jobs/{id}/result returns the canonical payload — byte-identical to
// an offline `tcsim sweep` of the same grid — and GET /metrics serves
// the Prometheus text exposition. Overload is rejected with 429 +
// Retry-After rather than queued unboundedly.
//
// On SIGINT/SIGTERM the daemon stops admission, drains in-flight jobs
// for -grace, then exits. With -spool every admitted job's spec is
// written to <spool>/<seq>-<id>.json before it is queued and removed
// when the job settles, and every completed grid cell is written once as
// a record under <spool>/cells/. So a job still queued at exit, cut by
// the drain deadline or killed outright is re-admitted, in seq order, at
// the next start and replays its recorded cells to the same result
// digest an uninterrupted run produces. Corrupt spool files and cell
// records are quarantined (renamed *.quarantine) and reported, never
// fatal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"threadcluster/internal/server"
)

// systemClock feeds real wall time to the server. The wallclock
// analyzer checks library code only and cmd/ is outside its scope, so
// the time.Now calls live here, not in the library (DESIGN.md §6).
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tcsimd:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until the stop signal (or the stop channel in
// tests) fires, then drains. It prints the bound address on stdout once
// listening, so scripts binding ":0" can discover the port.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("tcsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8321", "listen address (use :0 for an ephemeral port)")
		jobWorkers  = fs.Int("job-workers", 1, "concurrently executing jobs (results are byte-identical for any value)")
		taskWorkers = fs.Int("task-workers", 0, "default per-job sweep pool size (0 = GOMAXPROCS)")
		queueDepth  = fs.Int("queue-depth", 64, "max queued (not yet running) jobs before 429")
		maxJobCost  = fs.Int64("max-job-cost", 0, "per-job token budget, grid cells x rounds (0 = default)")
		maxQueued   = fs.Int64("max-queued-cost", 0, "outstanding token pool before 429 (0 = 8x per-job budget)")
		spoolDir    = fs.String("spool", "", "directory for unfinished jobs' specs (one <seq>-<id>.json each, from admission until settled) and completed grid-cell records across restarts (empty = no spool)")
		grace       = fs.Duration("grace", 30*time.Second, "drain deadline for in-flight jobs at shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	s, err := server.New(server.Options{
		Clock:         systemClock{},
		QueueDepth:    *queueDepth,
		MaxJobCost:    *maxJobCost,
		MaxQueuedCost: *maxQueued,
		JobWorkers:    *jobWorkers,
		TaskWorkers:   *taskWorkers,
		SpoolDir:      *spoolDir,
	})
	if err != nil {
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	// The workers outlive the signal: Shutdown drains them gracefully.
	// Only a second signal (ctx here is already done) aborts hard.
	if err := s.Start(context.WithoutCancel(ctx)); err != nil {
		return err
	}
	// Quarantined spool files are warnings, not startup failures:
	// report them and serve.
	for _, w := range s.SpoolWarnings() {
		fmt.Fprintf(stderr, "tcsimd: spool: %v\n", w)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("tcsimd: listening on %s: %w", *addr, err)
	}
	fmt.Fprintf(stdout, "tcsimd: listening on http://%s\n", ln.Addr())

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case <-stop:
	case err := <-serveErr:
		return fmt.Errorf("tcsimd: serving: %w", err)
	}

	fmt.Fprintf(stderr, "tcsimd: draining (grace %s)\n", *grace)
	gctx, gcancel := context.WithTimeout(context.WithoutCancel(ctx), *grace)
	defer gcancel()
	drainErr := s.Shutdown(gctx) // ends admission, drains jobs, closes event streams
	if err := httpSrv.Shutdown(gctx); err != nil && drainErr == nil {
		drainErr = fmt.Errorf("tcsimd: closing http server: %w", err)
	}
	if errors.Is(drainErr, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "tcsimd: drain deadline struck; running jobs were canceled")
		return nil
	}
	return drainErr
}
