package fleet

import (
	"context"
	"testing"

	"threadcluster/internal/experiments"
	"threadcluster/internal/server"
)

// BenchmarkShardDecode decodes the served payload of an eight-cell shard
// of tcbench's service-floor grid (1/1/1 rounds) the way HTTPWorker
// does. Run it with -benchmem.
func BenchmarkShardDecode(b *testing.B) {
	spec := server.JobSpec{
		ID:         "bench",
		Workloads:  experiments.AllWorkloads(),
		Policies:   []string{"default", "round-robin", "hand-optimized", "clustered"},
		Topos:      []string{experiments.TopoOpenPower720, experiments.TopoPower5_32},
		Seed:       20070321,
		WarmRounds: 1, EngineRounds: 1, MeasureRounds: 1,
		Cells: []int{0, 5, 10, 15, 16, 21, 26, 31},
	}
	p, err := runShardOffline(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	data, err := p.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := decodeShardTasks(data); err != nil {
			b.Fatal(err)
		}
	}
}
