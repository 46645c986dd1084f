package main

import (
	"context"
	"io"
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
