package workloads

import (
	"math/rand"
	"testing"

	"threadcluster/internal/memory"
)

func BenchmarkBTreeInsert(b *testing.B) {
	tr, err := NewBTree(memory.NewDefaultArena())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var trace []memory.Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trace, err = tr.Insert(trace[:0], uint64(rng.Int63n(1<<40))+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	tr, _ := NewBTree(memory.NewDefaultArena())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		_, _ = tr.Insert(nil, uint64(rng.Int63n(1<<30))+1)
	}
	var trace []memory.Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace, _ = tr.Lookup(trace[:0], uint64(i%(1<<30))+1)
	}
}

func BenchmarkSyntheticGeneratorNext(b *testing.B) {
	spec, err := NewSynthetic(memory.NewDefaultArena(), DefaultSyntheticConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Threads[0].Gen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkJBBGeneratorNext(b *testing.B) {
	spec, err := NewJBB(memory.NewDefaultArena(), DefaultJBBConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Threads[0].Gen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkRubisGeneratorNext(b *testing.B) {
	spec, err := NewRubis(memory.NewDefaultArena(), DefaultRubisConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := spec.Threads[0].Gen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
