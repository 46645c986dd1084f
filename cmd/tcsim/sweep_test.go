package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"threadcluster/internal/errs"
	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
)

// sweepArgs keeps the grid tiny so the tests stay fast.
func sweepArgs(extra ...string) []string {
	warm, engine, measure := "30", "50", "30"
	if testing.Short() {
		// The sweep tests check determinism and output formats, not
		// result shapes; -short shrinks the simulated rounds further.
		warm, engine, measure = "10", "20", "10"
	}
	return append([]string{
		"-workloads", "microbenchmark,volano",
		"-policies", "default,clustered",
		"-warm", warm, "-engine", engine, "-measure", measure,
	}, extra...)
}

// runSweepOut returns the sweep's stdout, the comparison surface; stderr
// (wall-clock) is discarded.
func runSweepOut(t *testing.T, extra ...string) string {
	t.Helper()
	args := sweepArgs(extra...)
	var out bytes.Buffer
	if err := runSweep(args, &out, io.Discard); err != nil {
		t.Fatalf("runSweep %v: %v", args, err)
	}
	return out.String()
}

// TestSweepDeterministicAcrossWorkers is the subcommand-level determinism
// check: per-configuration output is byte-identical for any -workers value.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	ref := runSweepOut(t, "-workers", "1", "-format", "json")
	for _, w := range []string{"2", "4"} {
		if got := runSweepOut(t, "-workers", w, "-format", "json"); got != ref {
			t.Errorf("-workers=%s output differs from -workers=1", w)
		}
	}
}

// TestSweepJSONIsThePayload: `tcsim sweep -format json` prints what
// `tcsim submit`, tcfleet and a tcsimd result fetch print for the same
// grid: json.Marshal of the offline result payload, plus one newline.
func TestSweepJSONIsThePayload(t *testing.T) {
	got := runSweepOut(t, "-format", "json")
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	grid := server.BindGridFlags(fs)
	if err := fs.Parse(sweepArgs()); err != nil {
		t.Fatal(err)
	}
	spec, err := grid.Spec()
	if err == nil {
		spec, err = spec.Normalize()
	}
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cells, results, merged, err := experiments.RunGrid(context.Background(), g, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := server.BuildResultPayload(cells, results, merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want)+"\n" {
		t.Fatalf("sweep -format json printed\n%s\nwant json.Marshal of the offline payload plus a newline:\n%s", got, want)
	}
}

func TestSweepTableOutput(t *testing.T) {
	out := runSweepOut(t, "-format", "table")
	for _, want := range []string{
		"Sweep: policy x topology x workload",
		"microbenchmark/default/open720",
		"volano/clustered/open720",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepRejectsUnknowns(t *testing.T) {
	var out bytes.Buffer
	if err := runSweep([]string{"-policies", "bogus"}, &out, io.Discard); err == nil {
		t.Error("unknown policy should error")
	}
	if err := runSweep([]string{"-workloads", "bogus"}, &out, io.Discard); err == nil {
		t.Error("unknown workload should error")
	}
	// The format is checked before any cell runs: a 1ns deadline would
	// otherwise end the grid first and report its own error.
	if err := runSweep([]string{"-format", "bogus", "-timeout", "1ns"}, &out, io.Discard); err == nil ||
		!errors.Is(err, errs.ErrBadConfig) || !strings.Contains(err.Error(), "unknown format") {
		t.Errorf("-format bogus: %v, want an unknown-format ErrBadConfig", err)
	}
}
