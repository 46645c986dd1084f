package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
	"threadcluster/internal/sweep"
)

// runSweep implements the `tcsim sweep` subcommand: fan a configuration
// grid (policy x topology x workload) across a worker pool and emit a
// metrics table, or the result payload tcsimd and tcfleet serve for the
// same grid. Per-configuration results are byte-identical for any
// -workers value — seeds are fixed by the grid, not by scheduling — so
// `-workers 1` is the reference run and higher counts only change
// wall-clock (reported on stderr to keep stdout comparable).
func runSweep(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		grid    = server.BindGridFlags(fs)
		workers = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		format  = fs.String("format", "table", "output: table|markdown|json (the compact result payload tcsim submit prints)")
		digest  = fs.Bool("digest", false, "print only the canonical result-payload digest (matches a tcsimd job's digest for the same grid)")
		timeout = fs.Duration("timeout", 0, "cancel the sweep after this duration (0 = none)")
		cpuprof = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "table" && *format != "markdown" && *format != "json" {
		return fmt.Errorf("sweep: %w: unknown format %q (have table, markdown, json)", errs.ErrBadConfig, *format)
	}

	stopCPU, err := startCPUProfile(*cpuprof)
	if err != nil {
		return err
	}
	defer stopCPU()

	// The offline path is the served one: flags -> JobSpec -> Normalize
	// -> Grid, so the digest below is the one tcsimd and tcfleet report.
	spec, err := grid.Spec()
	if err != nil {
		return err
	}
	if spec, err = spec.Normalize(); err != nil {
		return err
	}
	if len(spec.Cells) > 0 {
		// RunGrid runs whole grids; replaying a fleet shard's spooled
		// spec as one would print a digest no worker ever served.
		return fmt.Errorf("sweep: %w: spec is shard-scoped (cells %v); drop \"cells\" to run the whole grid", errs.ErrBadConfig, spec.Cells)
	}
	gridSpec, err := spec.Grid()
	if err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	cells, results, merged, err := experiments.RunGrid(ctx, gridSpec, *workers)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	switch {
	case *digest || *format == "json":
		p, data, err := server.EncodeResultPayload(nil, cells, results, merged)
		if err != nil {
			return err
		}
		if *digest {
			fmt.Fprintln(stdout, p.Digest)
		} else if _, err := stdout.Write(append(data, '\n')); err != nil {
			return err
		}
	case *format == "table":
		fmt.Fprintln(stdout, experiments.GridTable(cells, results))
	default:
		fmt.Fprintln(stdout, experiments.GridTable(cells, results).Markdown())
	}
	fmt.Fprintf(stderr, "sweep: %d configurations on %d workers in %s\n",
		len(cells), sweep.Workers(*workers), elapsed.Round(time.Millisecond))
	return writeMemProfile(*memprof)
}
