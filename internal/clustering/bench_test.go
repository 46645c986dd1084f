package clustering

import (
	"testing"

	"threadcluster/internal/memory"
)

func benchShMaps(nThreads int) map[ThreadKey]*ShMap {
	shmaps, _ := makeGroupsBench(4, nThreads/4, 256, 40)
	return shmaps
}

func makeGroupsBench(nGroups, groupSize, entries int, intensity uint8) (map[ThreadKey]*ShMap, map[ThreadKey]int) {
	shmaps := make(map[ThreadKey]*ShMap)
	truth := make(map[ThreadKey]int)
	band := entries / (nGroups + 1)
	for g := 0; g < nGroups; g++ {
		for t := 0; t < groupSize; t++ {
			id := ThreadKey(g*groupSize + t)
			m := NewShMap(entries)
			for e := g * band; e < (g+1)*band; e++ {
				for k := uint8(0); k < intensity; k++ {
					m.Increment(e)
				}
			}
			shmaps[id] = m
			truth[id] = g
		}
	}
	return shmaps, truth
}

func BenchmarkDotProduct(b *testing.B) {
	shmaps := benchShMaps(8)
	a, c := shmaps[0], shmaps[1]
	mask := make([]bool, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotProduct(a, c, DefaultFloor, mask)
	}
}

func BenchmarkOnePassCluster16(b *testing.B) {
	shmaps := benchShMaps(16)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Cluster(shmaps)
	}
}

func BenchmarkOnePassCluster128(b *testing.B) {
	shmaps := benchShMaps(128)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Cluster(shmaps)
	}
}

func BenchmarkKMeans16(b *testing.B) {
	shmaps := benchShMaps(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(shmaps, 4, DefaultFloor, 0.5, 1, 50)
	}
}

func BenchmarkHierarchical16(b *testing.B) {
	shmaps := benchShMaps(16)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hierarchical(shmaps, cfg)
	}
}

func BenchmarkFilterAdmit(b *testing.B) {
	f, err := NewFilter(256, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Admit(ThreadKey(i%16), memory.Addr(uint64(i%512)*memory.LineSize))
	}
}

func BenchmarkHashLine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashLine(memory.Addr(uint64(i)*memory.LineSize), 256)
	}
}
