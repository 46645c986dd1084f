package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/clustering"
	"threadcluster/internal/pagedetect"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
	"threadcluster/internal/workloads"
)

// DetectorComparison is one row of the PMU-vs-page-protection study: the
// same workload observed by the paper's PMU sampling path and by the
// software-DSM page-protection baseline that Section 1 argues against.
type DetectorComparison struct {
	Workload string
	Approach string // "pmu" or "page"
	// Purity and RandIndex score the detected clusters against ground
	// truth.
	Purity    float64
	RandIndex float64
	// Clusters is the number of >= 2-thread clusters found.
	Clusters int
	// OverheadPercent is detection overhead as a share of all cycles
	// during the detection window.
	OverheadPercent float64
}

// PageVsPMU runs the Section 1 comparison: detection granularity and
// overhead of the PMU path (128-byte lines, hardware-sampled, filtered)
// versus page protection (4KB pages, fault per first touch per epoch).
// The expectation, straight from the paper's motivation: the PMU path
// cleanly separates sharing groups at a fraction of the overhead, while
// the page path suffers false sharing — sub-page structures coalesce and
// a shared allocator interleaves unrelated objects on the same pages.
func PageVsPMU(ctx context.Context, opt Options) ([]DetectorComparison, *stats.Table, error) {
	var rows []DetectorComparison
	for _, workload := range []string{Microbenchmark, JBB} {
		pmuRow, err := pmuDetectorRow(ctx, workload, opt)
		if err != nil {
			return nil, nil, err
		}
		pageRow, err := pageDetectorRow(ctx, workload, opt)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, pmuRow, pageRow)
	}
	t := stats.NewTable("Section 1 study: PMU sampling vs page-protection detection",
		"Workload", "Approach", ">=2-thread clusters", "Purity", "Rand index", "Overhead")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Approach,
			fmt.Sprintf("%d", r.Clusters),
			fmt.Sprintf("%.3f", r.Purity),
			fmt.Sprintf("%.3f", r.RandIndex),
			fmt.Sprintf("%.2f%%", r.OverheadPercent))
	}
	return rows, t, nil
}

// pmuDetectorRow and pageDetectorRow observe a machine whose placement
// scatters sharing groups (round-robin), so both detectors see plenty of
// cross-chip sharing to work with.
func pmuDetectorRow(ctx context.Context, workload string, opt Options) (DetectorComparison, error) {
	spec, err := BuildWorkload(workload, opt.Seed)
	if err != nil {
		return DetectorComparison{}, err
	}
	st := study{policy: sched.PolicyRoundRobin, install: spec.Install, engine: controlledEngine(nil)}
	var snap *detectionSnapshot
	res, r, err := st.runInterval(ctx, opt, opt.WarmRounds, func(r *rig) (err error) {
		snap, err = r.detect(ctx, 40*opt.EngineRounds)
		return err
	})
	if err != nil {
		return DetectorComparison{}, fmt.Errorf("pmu path on %s: %w", workload, err)
	}
	defer r.close()
	return detectorRow(workload, "pmu", snap.clusters, spec, res, r), nil
}

func pageDetectorRow(ctx context.Context, workload string, opt Options) (DetectorComparison, error) {
	spec, err := BuildWorkload(workload, opt.Seed)
	if err != nil {
		return DetectorComparison{}, err
	}
	det, err := pagedetect.New(pagedetect.DefaultConfig())
	if err != nil {
		return DetectorComparison{}, err
	}
	st := study{policy: sched.PolicyRoundRobin, install: spec.Install}
	res, r, err := st.runInterval(ctx, opt, opt.WarmRounds, func(r *rig) error {
		det.Install(r.m)
		defer det.Stop(r.m)
		// Give the page path the same wall-clock budget the PMU path's
		// detection typically needs in these configurations.
		return r.m.RunRoundsCtx(ctx, opt.EngineRounds)
	})
	if err != nil {
		return DetectorComparison{}, err
	}
	defer r.close()
	clusters := det.Cluster(pagedetect.DefaultClusterConfig())
	return detectorRow(workload, "page", clusters, spec, res, r), nil
}

// detectorRow scores one detector's clusters and overhead.
func detectorRow(workload, approach string, clusters []clustering.Cluster, spec *workloads.Spec, res RunMetrics, r *rig) DetectorComparison {
	truth := truthOf(spec)
	return DetectorComparison{
		Workload:        workload,
		Approach:        approach,
		Purity:          clustering.Purity(clusters, truth),
		RandIndex:       clustering.RandIndex(clusters, truth),
		Clusters:        bigClusters(clusters),
		OverheadPercent: 100 * stats.Ratio(float64(r.m.OverheadCycles()), float64(res.Breakdown.Cycles)),
	}
}

func truthOf(spec interface {
	Truth() map[int]int
}) map[clustering.ThreadKey]int {
	truth := make(map[clustering.ThreadKey]int)
	for id, p := range spec.Truth() {
		truth[clustering.ThreadKey(id)] = p
	}
	return truth
}

func bigClusters(clusters []clustering.Cluster) int {
	n := 0
	for _, c := range clusters {
		if c.Size() >= 2 {
			n++
		}
	}
	return n
}
