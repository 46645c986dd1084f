package server

import (
	"context"
	"testing"

	"threadcluster/internal/experiments"
)

// servedSink keeps the benchmark's render from being optimised away.
var servedSink []byte

// BenchmarkPayloadEncode assembles and digests the payload of tcbench's
// 32-cell service-floor grid (1/1/1 rounds), as runJob does for a
// finished job, and renders the served bytes once, as one fetch of it
// does. Run it with -benchmem.
func BenchmarkPayloadEncode(b *testing.B) {
	norm, err := JobSpec{
		Workloads:  experiments.AllWorkloads(),
		Policies:   []string{"default", "round-robin", "hand-optimized", "clustered"},
		Topos:      []string{experiments.TopoOpenPower720, experiments.TopoPower5_32},
		Seed:       20070321,
		WarmRounds: 1, EngineRounds: 1, MeasureRounds: 1,
	}.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	grid, err := norm.Grid()
	if err != nil {
		b.Fatal(err)
	}
	cells, results, merged, err := experiments.RunGrid(context.Background(), grid, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		_, compact, err := EncodeResultPayload(cells, results, merged)
		if err != nil {
			b.Fatal(err)
		}
		servedSink = RenderResultPayload(compact)
	}
}
