package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
	"threadcluster/internal/topology"
)

// MuxValidationResult compares the multiplexed stall-breakdown estimates
// against exact counts.
type MuxValidationResult struct {
	// Rows are per-category exact vs estimated fractions of cycles.
	Rows []MuxValidationRow
	// MaxErrorPts is the worst absolute error, in percentage points of
	// the CPI stack.
	MaxErrorPts float64
}

// MuxValidationRow is one stall category's comparison.
type MuxValidationRow struct {
	Event     pmu.Event
	ExactPct  float64
	MuxPct    float64
	AbsErrPts float64
}

// MuxValidation reproduces the methodological premise behind Figure 3:
// the stall breakdown is collected with fine-grained HPC multiplexing
// [Azimi et al. 2005] because the full CPI stack needs more events than
// the PMU has physical counters. The experiment monitors the complete
// breakdown through rotating counter groups (3 groups of at most 6
// events) on every CPU and compares the scaled estimates with exact
// counts — the estimates must track within a few percentage points for
// the figure (and the engine's activation rule) to be trustworthy.
func MuxValidation(ctx context.Context, opt Options) (MuxValidationResult, *stats.Table, error) {
	spec, err := BuildWorkload(Volano, opt.Seed)
	if err != nil {
		return MuxValidationResult{}, nil, err
	}
	// Three multiplexer groups covering the full breakdown; each fits the
	// six physical counters.
	groups := [][]pmu.Event{
		{pmu.EvCycles, pmu.EvInstCompleted, pmu.EvCompletionCycles, pmu.EvL1DMiss},
		{pmu.EvStallL2, pmu.EvStallL3, pmu.EvStallRemoteL2, pmu.EvStallRemoteL3},
		{pmu.EvStallMemory, pmu.EvStallRemoteMemory, pmu.EvStallSMT, pmu.EvStallBranch, pmu.EvStallOther},
	}
	muxes := make([]*pmu.Multiplexer, opt.Topo.NumCPUs())
	st := study{
		policy:  sched.PolicyDefault,
		install: spec.Install,
		setup: func(r *rig) error {
			for c := range muxes {
				mux, err := pmu.NewMultiplexer(groups, 5_000)
				if err != nil {
					return err
				}
				muxes[c] = mux
				r.m.AttachMux(topology.CPUID(c), mux)
			}
			return nil
		},
	}
	measured, r, err := st.runInterval(ctx, opt, opt.WarmRounds, func(r *rig) error {
		for c := range muxes {
			muxes[c].Reset()
		}
		// Longer window: estimates need samples.
		return r.m.RunRoundsCtx(ctx, opt.MeasureRounds*3)
	})
	if err != nil {
		return MuxValidationResult{}, nil, err
	}
	r.close()

	exact := measured.Breakdown
	var est pmu.Breakdown
	for c := range muxes {
		est.Add(pmu.BreakdownFromMux(muxes[c]))
	}

	res := MuxValidationResult{}
	t := stats.NewTable("HPC multiplexing validation (VolanoMark, full CPI stack via 3 counter groups)",
		"Category", "Exact", "Multiplexed", "Error (pts)")
	add := func(ev pmu.Event, exactPct, muxPct float64) {
		row := MuxValidationRow{Event: ev, ExactPct: exactPct, MuxPct: muxPct,
			AbsErrPts: abs(exactPct - muxPct)}
		res.Rows = append(res.Rows, row)
		if row.AbsErrPts > res.MaxErrorPts {
			res.MaxErrorPts = row.AbsErrPts
		}
		t.AddRow(ev.String(),
			fmt.Sprintf("%.2f%%", exactPct),
			fmt.Sprintf("%.2f%%", muxPct),
			fmt.Sprintf("%.2f", row.AbsErrPts))
	}
	if exact.Cycles > 0 && est.Cycles > 0 {
		add(pmu.EvCompletionCycles,
			100*float64(exact.Completion)/float64(exact.Cycles),
			100*float64(est.Completion)/float64(est.Cycles))
		for _, ev := range pmu.StallEvents() {
			add(ev, 100*exact.Fraction(ev), 100*est.Fraction(ev))
		}
	}
	return res, t, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
