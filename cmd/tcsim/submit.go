package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"threadcluster/internal/client"
	"threadcluster/internal/server"
)

// runSubmit implements the `tcsim submit` subcommand: submit a sweep
// grid to a running tcsimd, follow its progress, and print the canonical
// result payload as one compact JSON line — byte-identical to what
// `tcsim sweep` computes offline for the same grid, which is what makes
// remote execution trustworthy.
func runSubmit(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		grid     = server.BindGridFlags(fs)
		addr     = fs.String("addr", "http://127.0.0.1:8321", "tcsimd base URL")
		id       = fs.String("id", "", "job ID (server assigns one when empty)")
		workers  = fs.Int("workers", 0, "per-job sweep pool size (0 = server default)")
		priority = fs.Int("priority", 0, "admission priority (higher runs earlier)")
		wait     = fs.Bool("wait", true, "follow the job and print its result payload (false: print the admission status and return)")
		events   = fs.Bool("events", false, "echo progress events to stderr while waiting")
		digest   = fs.Bool("digest", false, "print only the result digest instead of the payload")
		retries  = fs.Int("retries", 5, "re-submissions after a 429 rejection, honoring Retry-After with deterministic seed-derived jitter (0 = fail fast)")
		timeout  = fs.Duration("timeout", 0, "give up after this duration (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := grid.Spec()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if *id != "" {
		spec.ID = *id
	}
	if *workers != 0 {
		spec.Workers = *workers
	}
	if *priority != 0 {
		spec.Priority = *priority
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cl := client.New(*addr, nil).WithBackoff(client.Backoff{Retries: *retries, Seed: spec.Seed})
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(stderr, "submit: job %s admitted (cost %d)\n", st.ID, st.Cost)
	if !*wait {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}

	onEvent := func(server.Event) error { return nil }
	if *events {
		enc := json.NewEncoder(stderr)
		onEvent = func(ev server.Event) error { return enc.Encode(ev) }
	}
	if err := cl.Events(ctx, st.ID, onEvent); err != nil {
		return fmt.Errorf("submit: following job %s: %w", st.ID, err)
	}
	final, err := cl.Status(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if final.State != server.StateDone {
		return fmt.Errorf("submit: job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	if *digest {
		fmt.Fprintln(stdout, final.Digest)
		return nil
	}
	payload, err := cl.Result(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	_, err = stdout.Write(append(payload, '\n'))
	return err
}
