package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/clustering"
	"threadcluster/internal/core"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// Figure8Point is one sweep point of the Figure 8 trade-off.
type Figure8Point struct {
	// RatePercent is the temporal sampling rate: the percentage of remote
	// cache accesses captured (100 / N).
	RatePercent float64
	// OverheadPercent is detection-phase runtime overhead: cycles spent
	// in sampling interrupts as a share of all cycles during detection.
	OverheadPercent float64
	// TrackingCycles is how long the detection phase ran to collect the
	// sample target (the right-hand axis of Figure 8).
	TrackingCycles uint64
}

// Figure8 reproduces Figure 8: the runtime overhead of the sharing
// detection phase and the time needed to collect the sample target, as a
// function of the temporal sampling rate, for SPECjbb. The paper sweeps
// capture rates of 2, 5, 10, 20 and 50 percent (N = 50, 20, 10, 5, 2) and
// finds ~10% to be the balance point.
func Figure8(ctx context.Context, opt Options) ([]Figure8Point, *stats.Table, error) {
	intervals := []uint64{50, 20, 10, 5, 2}
	var points []Figure8Point
	t := stats.NewTable("Figure 8: sampling-rate trade-off (SPECjbb detection phase)",
		"Capture rate", "Overhead", "Tracking cycles")
	for _, n := range intervals {
		p, err := figure8Point(ctx, n, opt)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
		t.AddRow(
			fmt.Sprintf("%.0f%% (1 in %d)", p.RatePercent, n),
			fmt.Sprintf("%.2f%%", p.OverheadPercent),
			fmt.Sprintf("%d", p.TrackingCycles),
		)
	}
	return points, t, nil
}

func figure8Point(ctx context.Context, interval uint64, opt Options) (Figure8Point, error) {
	spec, err := BuildWorkload(JBB, opt.Seed)
	if err != nil {
		return Figure8Point{}, err
	}
	st := study{
		policy:  sched.PolicyClustered,
		install: spec.Install,
		engine: controlledEngine(func(cfg *core.Config) {
			cfg.SamplingInterval = interval
			cfg.SamplingJitter = 0 // hold the rate exactly for the sweep
		}),
	}
	res, r, err := st.runInterval(ctx, opt, opt.WarmRounds, func(r *rig) error {
		_, err := r.detect(ctx, 200*opt.EngineRounds)
		return err
	})
	if err != nil {
		return Figure8Point{}, fmt.Errorf("experiments: sampling interval %d: %w", interval, err)
	}
	defer r.close()
	return Figure8Point{
		RatePercent:     100.0 / float64(interval),
		OverheadPercent: 100 * stats.Ratio(float64(r.m.OverheadCycles()), float64(res.Breakdown.Cycles)),
		TrackingCycles:  r.eng.LastDetectionCycles(),
	}, nil
}

// SpatialPoint is one row of the Section 6.4 spatial sensitivity study.
type SpatialPoint struct {
	Entries     int
	Clusters    int
	BigClusters int // clusters of at least 2 threads
	Purity      float64
	RandIndex   float64
}

// SpatialSensitivity reproduces Section 6.4: varying the shMap size (128,
// 256, 512 entries) must leave cluster identification essentially
// unchanged.
func SpatialSensitivity(ctx context.Context, opt Options) ([]SpatialPoint, *stats.Table, error) {
	sizes := []int{128, 256, 512}
	var points []SpatialPoint
	t := stats.NewTable("Section 6.4: spatial sampling sensitivity (SPECjbb)",
		"shMap entries", "clusters", ">=2-thread clusters", "purity", "rand index")
	for _, n := range sizes {
		p, err := spatialPoint(ctx, n, opt)
		if err != nil {
			return nil, nil, err
		}
		points = append(points, p)
		t.AddRowf(n, p.Clusters, p.BigClusters, p.Purity, p.RandIndex)
	}
	return points, t, nil
}

func spatialPoint(ctx context.Context, entries int, opt Options) (SpatialPoint, error) {
	spec, err := BuildWorkload(JBB, opt.Seed)
	if err != nil {
		return SpatialPoint{}, err
	}
	snap, err := detectOnce(ctx, opt, spec, func(cfg *core.Config) {
		cfg.ShMapEntries = entries
		cfg.FilterQuota = entries / 4
	})
	if err != nil {
		return SpatialPoint{}, fmt.Errorf("experiments: %d entries: %w", entries, err)
	}
	truth := truthOf(spec)
	return SpatialPoint{
		Entries:     entries,
		Clusters:    len(snap.clusters),
		BigClusters: bigClusters(snap.clusters),
		Purity:      clustering.Purity(snap.clusters, truth),
		RandIndex:   clustering.RandIndex(snap.clusters, truth),
	}, nil
}

// SDARPurityResult validates the Section 5.2.1 composition.
type SDARPurityResult struct {
	// SamplesRead is how many overflow-triggered register reads happened.
	SamplesRead int
	// TrulyRemote is how many of those reads actually held the address of
	// a remote cache access (checked against simulator ground truth).
	TrulyRemote int
	// Purity is TrulyRemote / SamplesRead. The paper's microbenchmark
	// validation found "almost all" samples to be remote accesses.
	Purity float64
}

// SDARPurity reproduces the Section 5.2.1 validation: program the overflow
// exception on the remote-access event, read the continuous-sampling
// register (which the hardware updates on *every* L1D miss) from the
// handler, and measure what fraction of the sampled addresses were truly
// remote accesses. The synthetic microbenchmark supplies plenty of local
// misses (large private chunks) to stress the technique.
func SDARPurity(ctx context.Context, opt Options) (SDARPurityResult, error) {
	spec, err := BuildWorkload(Microbenchmark, opt.Seed)
	if err != nil {
		return SDARPurityResult{}, err
	}
	var res SDARPurityResult
	st := study{
		policy:  sched.PolicyRoundRobin, // scatter sharers: plenty of remote traffic
		install: spec.Install,
		setup: func(r *rig) error {
			for c := 0; c < opt.Topo.NumCPUs(); c++ {
				err := r.m.PMU(topology.CPUID(c)).Program(0, pmu.EvRemoteAccess, 10, func(p *pmu.PMU) uint64 {
					s := p.ReadSDAR()
					if !s.Valid {
						return 0
					}
					res.SamplesRead++
					if s.SDARSourceForValidation().Remote() {
						res.TrulyRemote++
					}
					return 0
				})
				if err != nil {
					return err
				}
			}
			return nil
		},
	}
	r, err := st.build(opt)
	if err != nil {
		return SDARPurityResult{}, err
	}
	defer r.close()
	// The handlers count from the first round: the whole run is the
	// sample, with no warm-up to discard.
	if err := r.m.RunRoundsCtx(ctx, opt.WarmRounds+opt.MeasureRounds); err != nil {
		return SDARPurityResult{}, err
	}
	res.Purity = stats.Ratio(float64(res.TrulyRemote), float64(res.SamplesRead))
	return res, nil
}

// Table renders the SDAR purity result.
func (r SDARPurityResult) Table() *stats.Table {
	t := stats.NewTable("Section 5.2.1: sampled-address purity (microbenchmark)",
		"Samples read", "Truly remote", "Purity")
	t.AddRow(fmt.Sprintf("%d", r.SamplesRead), fmt.Sprintf("%d", r.TrulyRemote), stats.Pct(r.Purity))
	return t
}

// detectOnce runs one controlled detection phase of a workload under
// clustered placement — warm up, force detection, wait for it — with the
// engine configuration optionally adjusted. It is the shared procedure of
// Figure 5 and the spatial, ablation and threshold studies.
func detectOnce(ctx context.Context, opt Options, spec *workloads.Spec, adjust func(*core.Config)) (*detectionSnapshot, error) {
	r, err := study{policy: sched.PolicyClustered, install: spec.Install, engine: controlledEngine(adjust)}.build(opt)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.m.RunRoundsCtx(ctx, opt.WarmRounds); err != nil {
		return nil, err
	}
	return r.detect(ctx, 40*opt.EngineRounds)
}

// detectedShMaps runs one engine detection on a workload and returns the
// shMaps, ground truth and spec — shared setup for the ablation study.
func detectedShMaps(ctx context.Context, name string, opt Options) (map[clustering.ThreadKey]*clustering.ShMap, map[clustering.ThreadKey]int, *workloads.Spec, error) {
	spec, err := BuildWorkload(name, opt.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	snap, err := detectOnce(ctx, opt, spec, nil)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return snap.shmaps, truthOf(spec), spec, nil
}
