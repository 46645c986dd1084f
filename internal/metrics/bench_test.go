package metrics_test

import (
	"context"
	"sync"
	"testing"

	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sched"
)

// The benchmarks run on the snapshots of a real grid: the 32 cells (4
// workloads x 4 policies x 2 topologies) of tcbench's service-floor
// grid at 1/1/1 rounds. Run them with -benchmem.

// sink keeps the measured calls' results alive.
var sink metrics.Snapshot

var benchGrid struct {
	once  sync.Once
	snaps []metrics.Snapshot
	err   error
}

func gridSnapshots(b *testing.B) []metrics.Snapshot {
	b.Helper()
	benchGrid.once.Do(func() {
		grid := experiments.GridSpec{
			Workloads: experiments.AllWorkloads(),
			Policies:  []sched.Policy{sched.PolicyDefault, sched.PolicyRoundRobin, sched.PolicyHandOptimized, sched.PolicyClustered},
			Topos:     []string{experiments.TopoOpenPower720, experiments.TopoPower5_32},
			BaseSeed:  20070321,
			Opt:       experiments.DefaultOptions().WithRounds(1, 1, 1),
		}
		_, results, _, err := experiments.RunGrid(context.Background(), grid, 2)
		for _, r := range results {
			benchGrid.snaps = append(benchGrid.snaps, r.Metrics)
		}
		benchGrid.err = err
	})
	if benchGrid.err != nil {
		b.Fatal(benchGrid.err)
	}
	return benchGrid.snaps
}

// BenchmarkRegistrySnapshot snapshots a registry holding the series of
// one grid cell, every one registered as a collector or histogram.
func BenchmarkRegistrySnapshot(b *testing.B) {
	cell := gridSnapshots(b)[0]
	r := metrics.NewRegistry()
	for _, smp := range cell.Samples {
		switch smp.Kind {
		case metrics.KindCounter:
			r.RegisterCounterFunc(smp.Name, smp.Labels, func() uint64 { return smp.Count })
		case metrics.KindGauge:
			r.RegisterGaugeFunc(smp.Name, smp.Labels, func() float64 { return smp.Value })
		case metrics.KindHistogram:
			r.Histogram(smp.Name, smp.Labels, smp.Bounds).Observe(smp.Sum)
		}
	}
	b.ReportMetric(float64(r.Len()), "samples")
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sink = r.Snapshot()
	}
}

func BenchmarkDelta(b *testing.B) {
	snaps := gridSnapshots(b)
	cur, prev := snaps[1], snaps[0]
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sink = cur.Delta(prev)
	}
}

func BenchmarkMerge(b *testing.B) {
	snaps := gridSnapshots(b)
	x, y := snaps[0], snaps[1]
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sink = x.Merge(y)
	}
}

// BenchmarkMergeAll32 folds the 32 cells, as sweep.Merged does for a
// result payload's merged snapshot.
func BenchmarkMergeAll32(b *testing.B) {
	snaps := gridSnapshots(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sink = metrics.MergeAll(snaps)
	}
}
