package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threadcluster/internal/errs"
)

// runSnapshotOut runs the snapshot subcommand with a tiny round budget
// and returns the digest it prints on stdout.
func runSnapshotOut(t *testing.T, extra ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := runSnapshot(extra, &out, io.Discard); err != nil {
		t.Fatalf("runSnapshot %v: %v", extra, err)
	}
	return strings.TrimSpace(out.String())
}

// TestSnapshotSplitRunIdentity is the subcommand-level differential pin:
// running N+M rounds in one go and as a snapshot/resume pair produces
// byte-identical snapshot files and the same digest.
func TestSnapshotSplitRunIdentity(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.snap")
	half := filepath.Join(dir, "half.snap")
	resumed := filepath.Join(dir, "resumed.snap")

	fullDigest := runSnapshotOut(t, "-rounds", "50", "-out", full)
	runSnapshotOut(t, "-rounds", "30", "-out", half)
	resumedDigest := runSnapshotOut(t, "-resume", half, "-rounds", "20", "-out", resumed)

	if fullDigest != resumedDigest {
		t.Errorf("digest mismatch: full %s, resumed %s", fullDigest, resumedDigest)
	}
	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("snapshot files differ: full %d bytes, resumed %d bytes", len(a), len(b))
	}
}

// TestSnapshotResumeRefusesForeignSeed: -seed must match the snapshot
// when resuming. A resume under another seed fails with a
// bad-configuration error and writes nothing, rather than continuing the
// snapshot's run and reporting it under the new seed.
func TestSnapshotResumeRefusesForeignSeed(t *testing.T) {
	dir := t.TempDir()
	half := filepath.Join(dir, "half.snap")
	resumed := filepath.Join(dir, "resumed.snap")
	runSnapshotOut(t, "-workload", "volano", "-rounds", "10", "-seed", "1", "-out", half)
	err := runSnapshot([]string{"-workload", "volano", "-resume", half, "-seed", "2", "-rounds", "5", "-out", resumed},
		io.Discard, io.Discard)
	if !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("resume with a foreign -seed: %v, want ErrBadConfig", err)
	}
	if _, err := os.Stat(resumed); !os.IsNotExist(err) {
		t.Errorf("refused resume left %s behind (stat: %v)", resumed, err)
	}
}

// TestSnapshotRejectsBadFlags covers the argument-validation surface:
// unknown names, negative rounds and unconfined workloads all error
// before any simulation runs.
func TestSnapshotRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-rounds", "-1"},
		{"-policy", "bogus"},
		{"-topo", "bogus"},
		{"-workload", "bogus"},
		{"-coherence", "bogus"},
		{"-resume", filepath.Join(t.TempDir(), "missing.snap")},
	}
	for _, args := range cases {
		if err := runSnapshot(args, io.Discard, io.Discard); err == nil {
			t.Errorf("runSnapshot %v: want error, got nil", args)
		}
	}
}

// TestSnapshotUnconfinedWorkload: specjbb keeps shared scoreboards that
// a snapshot cannot carry, so snapshotting it must fail loudly instead
// of persisting a half-truth.
func TestSnapshotUnconfinedWorkload(t *testing.T) {
	err := runSnapshot([]string{"-workload", "specjbb", "-rounds", "5"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("snapshotting an unconfined workload should error")
	}
}
