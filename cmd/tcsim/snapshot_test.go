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

// TestSnapshotDigestsPinned pins the 200-round digest of every
// confined workload under the default and clustered policies on both
// topologies, as an unbroken run and as a 120 + 80 split through a
// snapshot file. The machine comes from experiments.WorkloadMachine,
// the grid's own build, so these pins hold that build and its restore
// to what `tcsim snapshot` printed before it shared them.
func TestSnapshotDigestsPinned(t *testing.T) {
	pins := map[string]string{
		"microbenchmark/default/open720":     "7edeec8040ce296f9b7c6e3eb21266f20eface66a08c3b2cb8b49fa035bc9dc9",
		"microbenchmark/default/power5-32":   "99e8478a963233de442c38075cf10b1f97c489c82552bf60a635b5b2d5d77b82",
		"microbenchmark/clustered/open720":   "3fcb6f7fbd10cb971dad9b7281fa6a9f2b4f2e728c15d73f35b41c06a3395ccf",
		"microbenchmark/clustered/power5-32": "5f9eb7d30689cf322b5ceb5d2e74dbe1064d4b7f23d82eafd1f4edf7c69b0f7a",
		"volano/default/open720":             "3a4af98c3351e6fad4506f51a2e01213eae5f00721db1acdaa44993a266cedfc",
		"volano/default/power5-32":           "c6a4f0f9c36c56711cb5cb5ba28ccbc77c9841d2a21eec165cf2a10328949786",
		"volano/clustered/open720":           "79254eb4515f59779f4e1919a1f31f8ac07664420884a5bd316658c42cb83717",
		"volano/clustered/power5-32":         "7464c861bcc45c741a1510b59bc8b9497aad8e6e55a584ec1ec6d79cfb1ca917",
	}
	dir := t.TempDir()
	for name, want := range pins {
		parts := strings.Split(name, "/")
		build := []string{"-workload", parts[0], "-policy", parts[1], "-topo", parts[2]}
		if got := runSnapshotOut(t, append(build, "-rounds", "200")...); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
		half := filepath.Join(dir, strings.ReplaceAll(name, "/", "-")+".snap")
		runSnapshotOut(t, append(build, "-rounds", "120", "-out", half)...)
		if got := runSnapshotOut(t, append(build, "-resume", half, "-rounds", "80")...); got != want {
			t.Errorf("%s split 120 + 80: digest %s, want %s", name, got, want)
		}
	}
}
