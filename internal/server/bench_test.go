package server

import (
	"context"
	"testing"

	"threadcluster/internal/experiments"
)

// servedSink keeps the benchmark's writes from being optimised away.
var servedSink stringSink

// BenchmarkPayloadEncode assembles and digests the payload of tcbench's
// 32-cell service-floor grid (1/1/1 rounds) into a reused buffer, cuts
// and interns it as runJob does for a finished job, and writes the
// served bytes once, as one fetch of it does. Run it with -benchmem.
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
	var sc payloadScratch
	var shapes shapeTable
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		p, compact, err := EncodeResultPayload(sc.compact[:0], cells, results, merged)
		if err != nil {
			b.Fatal(err)
		}
		sc.compact = compact
		sh, _, err := shapes.intern(&sc, compact, p.Digest)
		if err != nil {
			b.Fatal(err)
		}
		_ = keptPayload{shape: sh, vals: string(sc.vals)}.writeTo(&servedSink, p.Digest)
	}
}
