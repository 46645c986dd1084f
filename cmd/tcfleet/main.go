// Command tcfleet coordinates one sweep grid across a fleet of tcsimd
// workers and prints the merged canonical result payload, one compact
// JSON line — byte-identical to an offline `tcsim sweep` (and to a
// single tcsimd run) of the same spec, for any fleet size, worker
// failure pattern or coordinator crash/resume.
//
// Usage:
//
//	tcfleet -workers http://127.0.0.1:8321
//	tcfleet -workers http://h1:8321,http://h2:8321,http://h3:8321 \
//	        -workloads volano -policies default,clustered -digest
//	tcfleet -workers ... -spool /var/lib/tcfleet -id nightly-7 \
//	        -events events.ndjson -metrics metrics.prom
//
// The grid's cells are hashed onto a fixed virtual-shard ring (a
// property of the job, not the fleet) and dispatched as shard-scoped
// jobs carrying full-grid cell indices, so every cell keeps the seed
// the whole grid derives. Failed shards retry with deterministic
// backoff, a shard whose newest attempt outlives -steal-after (doubled
// per duplicate) gets one more attempt, preferably on another worker,
// and with -spool every completed cell is written once as a record
// under <spool>/cells/, so a killed coordinator's rerun — or any later
// run that shares cells with it — replays the recorded cells and
// dispatches only the rest, converging on the uninterrupted digest. See
// DESIGN.md §10.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"threadcluster/internal/client"
	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/fleet"
	"threadcluster/internal/server"
)

// systemClock feeds real wall time to the coordinator. The wallclock
// analyzer checks library code only and cmd/ is outside its scope, so
// the time.Now calls live here, not in internal/fleet (DESIGN.md §6).
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tcfleet:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tcfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workersFlag = fs.String("workers", "http://127.0.0.1:8321",
			"comma-separated tcsimd base URLs; worker names are w0, w1, ... in flag order")
		grid          = server.BindGridFlags(fs)
		id            = fs.String("id", "", "job ID, the prefix of its shard job IDs on the workers (empty = deterministic spec-derived ID)")
		taskWorkers   = fs.Int("task-workers", 0, "per-shard sweep pool size on each worker (0 = worker default)")
		virtualShards = fs.Int("virtual-shards", 0, "virtual-shard ring size (0 = default 64)")
		maxAttempts   = fs.Int("max-attempts", 0, "failed attempts per shard before the job fails (0 = default 4)")
		workerSlots   = fs.Int("worker-slots", 0, "concurrent shards per worker (0 = default 1)")
		stealAfter    = fs.Duration("steal-after", 0, "runtime after which a shard's newest attempt gets a duplicate, doubling per duplicate (0 = default 30s)")
		poll          = fs.Duration("poll", 0, "orchestrator idle tick (0 = default 200ms)")
		retries       = fs.Int("retries", 5, "per-submit 429 retries on each worker (0 = fail fast)")
		spoolDir      = fs.String("spool", "", "directory for completed grid-cell records, replayed by any later run that shares the cells (empty = no resume)")
		eventsFile    = fs.String("events", "", "write the NDJSON event stream here ('-' = stderr, empty = off)")
		metricsFile   = fs.String("metrics", "", "write the final fleet metrics exposition here ('-' = stderr, empty = off)")
		digest        = fs.Bool("digest", false, "print only the result digest instead of the payload")
		timeout       = fs.Duration("timeout", 0, "give up after this duration (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := grid.Spec()
	if err != nil {
		return err
	}
	if *id != "" {
		spec.ID = *id
	}
	if *taskWorkers != 0 {
		spec.Workers = *taskWorkers
	}

	urls := experiments.SplitList(*workersFlag)
	if len(urls) == 0 {
		return fmt.Errorf("tcfleet: %w: -workers lists no worker URLs", errs.ErrBadConfig)
	}
	workers := make([]fleet.Worker, 0, len(urls))
	for i, u := range urls {
		backoff := client.Backoff{Retries: *retries, Seed: spec.Seed + int64(i)}
		workers = append(workers, fleet.NewHTTPWorker(fmt.Sprintf("w%d", i), u, nil, backoff))
	}

	var eventsOut io.Writer
	switch *eventsFile {
	case "":
	case "-":
		eventsOut = stderr
	default:
		f, err := os.Create(*eventsFile)
		if err != nil {
			return fmt.Errorf("tcfleet: creating events file: %w", err)
		}
		defer f.Close()
		eventsOut = f
	}

	coord, err := fleet.New(workers, fleet.Options{
		Clock:         systemClock{},
		VirtualShards: *virtualShards,
		MaxAttempts:   *maxAttempts,
		WorkerSlots:   *workerSlots,
		StealAfter:    *stealAfter,
		Poll:          *poll,
		SpoolDir:      *spoolDir,
		Events:        eventsOut,
	})
	if err != nil {
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	payload, data, runErr := coord.Run(ctx, spec)
	for _, w := range coord.Warnings() {
		fmt.Fprintf(stderr, "tcfleet: warning: %v\n", w)
	}
	if *metricsFile != "" {
		if err := writeMetrics(coord, *metricsFile, stderr); err != nil {
			fmt.Fprintf(stderr, "tcfleet: warning: %v\n", err)
		}
	}
	if runErr != nil {
		return runErr
	}

	if *digest {
		fmt.Fprintln(stdout, payload.Digest)
		return nil
	}
	_, err = stdout.Write(append(data, '\n'))
	return err
}

// writeMetrics dumps the coordinator's Prometheus exposition.
func writeMetrics(coord *fleet.Coordinator, path string, stderr io.Writer) error {
	var w io.Writer = stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("creating metrics file: %w", err)
		}
		defer f.Close()
		w = f
	}
	return coord.Registry().WritePrometheus(w)
}
