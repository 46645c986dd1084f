package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threadcluster/internal/experiments"
)

// fastOptions keeps CLI tests quick. These tests exercise dispatch and
// output plumbing, not result shapes, so -short can cut the rounds
// further without weakening anything.
func fastOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.WarmRounds = 30
	opt.EngineRounds = 50
	opt.MeasureRounds = 30
	if testing.Short() {
		opt.WarmRounds = 10
		opt.EngineRounds = 20
		opt.MeasureRounds = 10
	}
	return opt
}

// run drives the -exp dispatch the way main does, discarding the output.
func run(ctx context.Context, exp, workload string, opt experiments.Options, markdown bool) error {
	return experiments.RunExperiment(ctx, io.Discard, exp, workload, opt, markdown)
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(context.Background(), "nonsense", experiments.Volano, fastOptions(), false)
	if err == nil {
		t.Fatal("unknown experiment should error")
	}
	// The error lists the catalogue, so it cannot go stale.
	for _, name := range experiments.ExperimentNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error does not offer %q: %v", name, err)
		}
	}
}

func TestRunTable1AndFig1(t *testing.T) {
	if err := run(context.Background(), "table1", experiments.Volano, fastOptions(), true); err != nil {
		t.Errorf("table1: %v", err)
	}
	if err := run(context.Background(), "fig1", experiments.Volano, fastOptions(), false); err != nil {
		t.Errorf("fig1: %v", err)
	}
}

func TestRunFig3SingleWorkload(t *testing.T) {
	if err := run(context.Background(), "fig3", experiments.Microbenchmark, fastOptions(), false); err != nil {
		t.Errorf("fig3: %v", err)
	}
}

// TestBadFlagsExitBeforeProfiling: every rejected command line — an
// unknown -exp included — exits 2 before the CPU profile is created.
// Neither -cluster (there is one clustering path, the paper's one-pass
// batch clustering, DESIGN.md §2) nor -engine (the simulator's driver is
// not a user choice) is a flag.
func TestBadFlagsExitBeforeProfiling(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"unknown -exp":      {[]string{"-exp", "nosuch"}, `unknown experiment "nosuch"`},
		"bad -coherence":    {[]string{"-coherence", "nosuch"}, "nosuch"},
		"bad -engine":       {[]string{"-engine", "seq"}, "flag provided but not defined: -engine"},
		"-cluster gone":     {[]string{"-cluster", "dense"}, "flag provided but not defined: -cluster"},
		"negative -warm":    {[]string{"-exp", "table1", "-warm", "-5"}, "negative round count"},
		"negative -measure": {[]string{"-exp", "table1", "-measure", "-1"}, "negative round count"},
	} {
		t.Run(name, func(t *testing.T) {
			prof := filepath.Join(t.TempDir(), "cpu.prof")
			var stdout, stderr bytes.Buffer
			if code := runExperiments(append(tc.args, "-cpuprofile", prof), &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("wrote %q to stdout", stdout.String())
			}
			if _, err := os.Stat(prof); !os.IsNotExist(err) {
				t.Errorf("a rejected command line left %s behind (stat: %v)", prof, err)
			}
		})
	}
}

// TestSimEngineFlagIsGone: no subcommand lets a user pick the
// simulator's driver; both drivers give byte-identical results, so every
// front end runs the default one.
func TestSimEngineFlagIsGone(t *testing.T) {
	for name, sub := range subcommands {
		err := sub([]string{"-simengine", "seq"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -simengine") {
			t.Errorf("tcsim %s -simengine seq: %v, want an undefined-flag error", name, err)
		}
	}
}
