package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/server"
)

// startJobServer boots an in-process job server behind httptest for the
// submit subcommand to talk to.
func startJobServer(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Options{
		Clock: server.NewFakeClock(time.Unix(1_700_000_000, 0).UTC()),
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := s.Start(ctx); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	return ts.URL
}

// digestOut runs one subcommand with -digest and returns the digest it
// printed.
func digestOut(t *testing.T, run func([]string, io.Writer, io.Writer) error, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"-digest"}, args...), &out, io.Discard); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	d := strings.TrimSpace(out.String())
	if !strings.HasPrefix(d, "sha256:") {
		t.Fatalf("%v printed %q, not a sha256 digest", args, d)
	}
	return d
}

// spoolViaDrain submits grid (by flags) to a tcsimd whose only worker is
// held by a long job, drains the daemon, and returns the spec file its
// admission spooled and the drain left behind — a real spool entry, not
// a hand-written one.
func spoolViaDrain(t *testing.T, grid []string) string {
	t.Helper()
	dir := t.TempDir()
	s, err := server.New(server.Options{
		Clock:      server.NewFakeClock(time.Unix(1_700_000_000, 0).UTC()),
		JobWorkers: 1, SpoolDir: dir, MaxJobCost: 1 << 40, MaxQueuedCost: 1 << 41,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	holder := []string{"-addr", ts.URL, "-id", "holder", "-wait=false",
		"-workloads", "microbenchmark", "-policies", "default", "-engine", "50000000"}
	if err := runSubmit(holder, io.Discard, io.Discard); err != nil {
		t.Fatalf("submitting holder: %v", err)
	}
	queued := append([]string{"-addr", ts.URL, "-id", "parked", "-wait=false"}, grid...)
	if err := runSubmit(queued, io.Discard, io.Discard); err != nil {
		t.Fatalf("submitting parked job: %v", err)
	}
	// An expired drain deadline cuts the holder down at its next round;
	// the still-queued job keeps its spool file.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
	matches, err := filepath.Glob(filepath.Join(dir, "*-parked.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("spool holds %v (err %v), want one spec for the parked job", matches, err)
	}
	return matches[0]
}

// TestSubmitMatchesOfflineSweepDigest is the CLI-level differential
// check the CI server-smoke job scripts: whatever the grid flags say,
// `tcsim submit -digest` against a live server equals `tcsim sweep
// -digest` computed offline, because both read them through one binder
// and one Normalize. Seed 0 (normalized to 1) and negative rounds
// (rejected) are the inputs the two used to disagree on.
func TestSubmitMatchesOfflineSweepDigest(t *testing.T) {
	addr := startJobServer(t)
	grid := []string{
		"-workloads", "microbenchmark,volano",
		"-policies", "default,clustered",
		"-warm", "10", "-engine", "20", "-measure", "10",
	}
	withSeed := func(seed string) []string { return append([]string{"-seed", seed}, grid...) }

	for _, seed := range []string{"0", "5"} {
		t.Run("seed "+seed, func(t *testing.T) {
			off := digestOut(t, runSweep, withSeed(seed)...)
			rem := digestOut(t, runSubmit, append([]string{"-addr", addr, "-id", "cli-" + seed}, withSeed(seed)...)...)
			if rem != off {
				t.Fatalf("server digest %q != offline digest %q", rem, off)
			}
		})
	}
	t.Run("spooled spec replays offline", func(t *testing.T) {
		specFile := spoolViaDrain(t, withSeed("5"))
		off := digestOut(t, runSweep, withSeed("5")...)
		if replay := digestOut(t, runSweep, "-spec", specFile); replay != off {
			t.Fatalf("sweep -spec %s digest %q != flag-built digest %q", specFile, replay, off)
		}
	})
	t.Run("negative rounds are ErrBadConfig", func(t *testing.T) {
		for _, flag := range []string{"-warm", "-engine", "-measure"} {
			args := append(withSeed("5"), flag, "-1") // the later flag wins
			if err := runSweep(args, io.Discard, io.Discard); !errors.Is(err, errs.ErrBadConfig) {
				t.Errorf("sweep %s -1 = %v, want ErrBadConfig", flag, err)
			}
			args = append([]string{"-addr", addr}, args...)
			if err := runSubmit(args, io.Discard, io.Discard); !errors.Is(err, errs.ErrBadConfig) {
				t.Errorf("submit %s -1 = %v, want ErrBadConfig", flag, err)
			}
		}
	})
}

// TestSubmitPrintsPayload checks the default mode: the canonical payload
// lands on stdout as one compact JSON line and embeds its digest.
func TestSubmitPrintsPayload(t *testing.T) {
	addr := startJobServer(t)
	args := []string{
		"-addr", addr, "-id", "pay",
		"-workloads", "microbenchmark",
		"-policies", "default",
		"-warm", "2", "-engine", "4", "-measure", "4",
	}
	var out bytes.Buffer
	if err := runSubmit(args, &out, io.Discard); err != nil {
		t.Fatalf("runSubmit: %v", err)
	}
	for _, want := range []string{`"tasks"`, `"merged"`, `"digest":"sha256:`} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("payload output lacks %s:\n%s", want, out.String())
		}
	}
	if got := out.String(); strings.Index(got, "\n") != len(got)-1 {
		t.Fatalf("payload output is not one line ending in a newline:\n%s", got)
	}
}

// TestSubmitReportsServerErrors maps a rejected spec onto a CLI error.
func TestSubmitReportsServerErrors(t *testing.T) {
	addr := startJobServer(t)
	args := []string{"-addr", addr, "-workloads", "no-such-workload"}
	err := runSubmit(args, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "bad_config") {
		t.Fatalf("runSubmit with bad workload = %v, want bad_config error", err)
	}
}
