package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
)

// startWorker boots a real job server behind httptest and returns its
// base URL — an in-process tcsimd.
func startWorker(t *testing.T) string {
	t.Helper()
	s, err := server.New(server.Options{
		Clock:      server.NewFakeClock(time.Unix(1_700_000_000, 0).UTC()),
		JobWorkers: 2,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := s.Start(context.Background()); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ts.URL
}

// offlineDigest computes the ground-truth digest for the grid flags
// the test passes to tcfleet.
func offlineDigest(t *testing.T, spec server.JobSpec) string {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	grid, err := norm.Grid()
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	cells, results, merged, err := experiments.RunGrid(context.Background(), grid, 2)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	digest, err := server.Digest(cells, results, merged)
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	return digest
}

// TestFleetCLIDigestMatchesOffline drives the whole binary path: two
// in-process workers, grid flags, -digest output equal to the offline
// computation, NDJSON events on disk.
func TestFleetCLIDigestMatchesOffline(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	eventsPath := filepath.Join(t.TempDir(), "events.ndjson")

	spec := server.JobSpec{
		Workloads:     []string{"microbenchmark", "volano"},
		Policies:      []string{"default", "clustered"},
		Topos:         []string{"open720"},
		Seed:          23,
		WarmRounds:    2,
		EngineRounds:  6,
		MeasureRounds: 4,
	}
	want := offlineDigest(t, spec)

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-workers", w1 + "," + w2,
		"-workloads", "microbenchmark,volano",
		"-policies", "default,clustered",
		"-topos", "open720",
		"-seed", "23", "-warm", "2", "-engine", "6", "-measure", "4",
		"-poll", "2ms",
		"-events", eventsPath,
		"-digest",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("tcfleet run: %v\nstderr: %s", err, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != want {
		t.Fatalf("tcfleet digest %q, want %q", got, want)
	}
	events, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatalf("reading events: %v", err)
	}
	for _, typ := range []string{`"shard_leased"`, `"shard_done"`, `"done"`} {
		if !bytes.Contains(events, []byte(typ)) {
			t.Errorf("event stream missing %s:\n%s", typ, events)
		}
	}
}

// TestFleetCLIRejectsNegativeRounds: the coordinator normalizes the
// flag-built spec like the offline sweep and the daemon do, so a
// negative round count fails before any worker is contacted.
func TestFleetCLIRejectsNegativeRounds(t *testing.T) {
	for _, flag := range []string{"-warm", "-engine", "-measure"} {
		err := run([]string{"-workers", "http://127.0.0.1:1", flag, "-1"}, io.Discard, io.Discard)
		if !errors.Is(err, errs.ErrBadConfig) {
			t.Errorf("tcfleet %s -1 = %v, want ErrBadConfig", flag, err)
		}
	}
}

// TestFleetCLIHasNoSimEngineFlag: the grid flags no longer pick the
// simulator's driver.
func TestFleetCLIHasNoSimEngineFlag(t *testing.T) {
	err := run([]string{"-workers", "http://127.0.0.1:1", "-simengine", "seq"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -simengine") {
		t.Errorf("tcfleet -simengine seq = %v, want an undefined-flag error", err)
	}
}

// TestFleetCLISpecFilePayload: -spec file input, full payload output,
// byte-identical across two invocations (one worker, then two).
func TestFleetCLISpecFilePayload(t *testing.T) {
	w1 := startWorker(t)
	specPath := filepath.Join(t.TempDir(), "spec.json")
	specJSON := `{
  "workloads": ["microbenchmark"],
  "policies": ["default", "clustered"],
  "topos": ["open720"],
  "seed": 9,
  "warm_rounds": 2,
  "engine_rounds": 6,
  "measure_rounds": 4
}`
	if err := os.WriteFile(specPath, []byte(specJSON), 0o666); err != nil {
		t.Fatal(err)
	}

	runOnce := func(workers string) string {
		var stdout bytes.Buffer
		err := run([]string{
			"-workers", workers, "-spec", specPath, "-poll", "2ms",
		}, &stdout, io.Discard)
		if err != nil {
			t.Fatalf("tcfleet run: %v", err)
		}
		return stdout.String()
	}
	one := runOnce(w1)
	two := runOnce(w1 + "," + startWorker(t))
	if one != two {
		t.Fatalf("payload differs between 1-worker and 2-worker fleets")
	}
	if !strings.Contains(one, `"digest":"sha256:`) || strings.Index(one, "\n") != len(one)-1 {
		t.Fatalf("payload is not one compact JSON line with its digest:\n%s", one)
	}
}
