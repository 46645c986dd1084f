package clustering

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// makeGroups synthesizes shMaps for nGroups groups of groupSize threads:
// each group shares a disjoint band of entries with high counters, each
// thread adds its own low-level noise, and optionally a globally shared
// band touched by everyone.
func makeGroups(nGroups, groupSize, entries int, intensity uint8, withGlobal bool, seed int64) (map[ThreadKey]*ShMap, map[ThreadKey]int) {
	rng := rand.New(rand.NewSource(seed))
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
			// Per-thread noise below the floor.
			for i := 0; i < 5; i++ {
				m.Increment(rng.Intn(entries))
			}
			if withGlobal {
				for e := nGroups * band; e < entries; e++ {
					for k := 0; k < 200; k++ {
						m.Increment(e)
					}
				}
			}
			shmaps[id] = m
			truth[id] = g
		}
	}
	return shmaps, truth
}

func TestOnePassRecoversGroups(t *testing.T) {
	shmaps, truth := makeGroups(4, 4, 256, 30, false, 1)
	clusters := DefaultConfig().Cluster(shmaps)
	if len(clusters) != 4 {
		t.Fatalf("found %d clusters, want 4", len(clusters))
	}
	if p := Purity(clusters, truth); p != 1.0 {
		t.Errorf("purity = %v, want 1.0", p)
	}
	if ri := RandIndex(clusters, truth); ri != 1.0 {
		t.Errorf("rand index = %v, want 1.0", ri)
	}
}

func TestOnePassIgnoresGloballySharedEntries(t *testing.T) {
	// With a strong global band and no masking, everything would collapse
	// into one cluster; the histogram mask must prevent that.
	shmaps, truth := makeGroups(2, 8, 256, 30, true, 2)
	clusters := DefaultConfig().Cluster(shmaps)
	if len(clusters) != 2 {
		t.Fatalf("found %d clusters, want 2 (global band must be masked)", len(clusters))
	}
	if p := Purity(clusters, truth); p != 1.0 {
		t.Errorf("purity = %v, want 1.0", p)
	}

	// Sanity: with masking disabled (fraction > 1 means never mask), the
	// global band dominates and merges the groups.
	cfg := DefaultConfig()
	cfg.GlobalFraction = 2.0
	merged := cfg.Cluster(shmaps)
	if len(merged) != 1 {
		t.Errorf("without masking expected 1 merged cluster, got %d", len(merged))
	}
}

func TestOnePassFloorSuppressesColdSharing(t *testing.T) {
	// Two threads overlapping only in sub-floor noise must not merge.
	a, b := NewShMap(64), NewShMap(64)
	for e := 0; e < 64; e++ {
		a.Increment(e)
		b.Increment(e) // both have value 1 everywhere: cold sharing
	}
	cfg := DefaultConfig()
	cfg.Threshold = 1 // even a tiny threshold; floor must zero the values
	clusters := cfg.Cluster(map[ThreadKey]*ShMap{1: a, 2: b})
	if len(clusters) != 2 {
		t.Errorf("cold sharing merged threads: %d clusters, want 2", len(clusters))
	}
}

func TestSimilarityThresholdScenarios(t *testing.T) {
	// Paper Section 4.4.1: one entry with both values > 200 crosses the
	// 40000 threshold; two entries with values > 145 also cross it.
	a, b := NewShMap(256), NewShMap(256)
	for i := 0; i < 201; i++ {
		a.Increment(0)
		b.Increment(0)
	}
	if got := DotProduct(a, b, DefaultFloor, nil); got < 40000 {
		t.Errorf("single entry >200: similarity = %v, want >= 40000", got)
	}
	c, d := NewShMap(256), NewShMap(256)
	for i := 0; i < 146; i++ {
		c.Increment(0)
		c.Increment(1)
		d.Increment(0)
		d.Increment(1)
	}
	if got := DotProduct(c, d, DefaultFloor, nil); got < 40000 {
		t.Errorf("two entries >145: similarity = %v, want >= 40000", got)
	}
	// Just below: a single pair of entries at 140 must not cross.
	e, f := NewShMap(256), NewShMap(256)
	for i := 0; i < 140; i++ {
		e.Increment(0)
		f.Increment(0)
	}
	if got := DotProduct(e, f, DefaultFloor, nil); got >= 40000 {
		t.Errorf("single entry at 140: similarity = %v, want < 40000", got)
	}
}

func TestDotProductSymmetricAndMasked(t *testing.T) {
	f := func(av, bv []uint8, maskBits uint8) bool {
		a, b := NewShMap(32), NewShMap(32)
		for i, v := range av {
			for k := uint8(0); k < v%64; k++ {
				a.Increment(i % 32)
			}
		}
		for i, v := range bv {
			for k := uint8(0); k < v%64; k++ {
				b.Increment(i % 32)
			}
		}
		mask := make([]bool, 32)
		for i := range mask {
			mask[i] = (maskBits>>(uint(i)%8))&1 == 1
		}
		s1 := DotProduct(a, b, DefaultFloor, mask)
		s2 := DotProduct(b, a, DefaultFloor, mask)
		if s1 != s2 {
			return false
		}
		// Fully masked similarity is zero.
		full := make([]bool, 32)
		for i := range full {
			full[i] = true
		}
		return DotProduct(a, b, DefaultFloor, full) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineProperties(t *testing.T) {
	a, b := NewShMap(16), NewShMap(16)
	for i := 0; i < 100; i++ {
		a.Increment(3)
		b.Increment(3)
	}
	if got := Cosine(a, a, DefaultFloor, nil); got < 0.999 || got > 1.001 {
		t.Errorf("cosine(self) = %v, want 1", got)
	}
	if got := Cosine(a, b, DefaultFloor, nil); got < 0.999 {
		t.Errorf("cosine of identical direction = %v, want 1", got)
	}
	empty := NewShMap(16)
	if got := Cosine(a, empty, DefaultFloor, nil); got != 0 {
		t.Errorf("cosine with empty vector = %v, want 0", got)
	}
}

func TestJaccardProperties(t *testing.T) {
	a, b := NewShMap(16), NewShMap(16)
	for i := 0; i < 10; i++ {
		a.Increment(0)
		a.Increment(1)
		b.Increment(1)
		b.Increment(2)
	}
	got := Jaccard(a, b, DefaultFloor, nil)
	if got != 1.0/3.0 {
		t.Errorf("jaccard = %v, want 1/3 (1 shared of 3 touched)", got)
	}
	if Jaccard(NewShMap(16), NewShMap(16), DefaultFloor, nil) != 0 {
		t.Error("jaccard of empty vectors should be 0")
	}
}

func TestGlobalMask(t *testing.T) {
	// 4 threads; entry 0 touched by all, entry 1 by exactly half, entry 2
	// by one.
	maps := make([]*ShMap, 4)
	for i := range maps {
		maps[i] = NewShMap(8)
		maps[i].Increment(0)
	}
	maps[0].Increment(1)
	maps[1].Increment(1)
	maps[2].Increment(2)
	mask := GlobalMask(maps, 8, 0.5)
	if !mask[0] {
		t.Error("entry touched by all threads must be masked")
	}
	if mask[1] {
		t.Error("entry touched by exactly half must NOT be masked (paper: 'more than half')")
	}
	if mask[2] {
		t.Error("entry touched by one thread must not be masked")
	}
}

func TestSortBySize(t *testing.T) {
	cs := []Cluster{
		{Rep: 5, Members: []ThreadKey{5}},
		{Rep: 1, Members: []ThreadKey{1, 2, 3}},
		{Rep: 4, Members: []ThreadKey{4, 6}},
		{Rep: 0, Members: []ThreadKey{0}},
	}
	SortBySize(cs)
	sizes := []int{cs[0].Size(), cs[1].Size(), cs[2].Size(), cs[3].Size()}
	if sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 || sizes[3] != 1 {
		t.Errorf("sizes after sort = %v, want [3 2 1 1]", sizes)
	}
	if cs[2].Rep != 0 || cs[3].Rep != 5 {
		t.Error("ties must break by representative key")
	}
}

func TestAssignment(t *testing.T) {
	cs := []Cluster{
		{Rep: 1, Members: []ThreadKey{1, 2}},
		{Rep: 3, Members: []ThreadKey{3}},
	}
	a := Assignment(cs)
	if a[1] != 0 || a[2] != 0 || a[3] != 1 {
		t.Errorf("assignment = %v", a)
	}
}

func TestPurityAndRandIndexDegenerate(t *testing.T) {
	if Purity(nil, nil) != 0 {
		t.Error("purity of no clusters should be 0")
	}
	one := []Cluster{{Rep: 1, Members: []ThreadKey{1}}}
	if RandIndex(one, map[ThreadKey]int{1: 0}) != 1 {
		t.Error("rand index with a single thread should be 1")
	}
}

func TestClusterDeterminism(t *testing.T) {
	shmaps, _ := makeGroups(3, 5, 256, 25, true, 7)
	c1 := DefaultConfig().Cluster(shmaps)
	c2 := DefaultConfig().Cluster(shmaps)
	if len(c1) != len(c2) {
		t.Fatalf("nondeterministic cluster count: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].Rep != c2[i].Rep || c1[i].Size() != c2[i].Size() {
			t.Fatalf("cluster %d differs between runs", i)
		}
	}
}

// Property: every thread lands in exactly one cluster.
func TestClusterPartitionProperty(t *testing.T) {
	f := func(seed int64, gRaw, sRaw uint8) bool {
		nGroups := int(gRaw%4) + 1
		size := int(sRaw%5) + 1
		shmaps, _ := makeGroups(nGroups, size, 128, 20, seed%2 == 0, seed)
		clusters := DefaultConfig().Cluster(shmaps)
		seen := make(map[ThreadKey]int)
		for _, c := range clusters {
			for _, m := range c.Members {
				seen[m]++
			}
		}
		if len(seen) != len(shmaps) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansRecoversGroups(t *testing.T) {
	shmaps, truth := makeGroups(4, 4, 256, 30, true, 3)
	clusters, dists := KMeans(shmaps, 4, DefaultFloor, 0.5, 42, 50)
	if len(clusters) == 0 {
		t.Fatal("kmeans returned nothing")
	}
	// Seeding measures each of the 16 points against 1, 2, then 3
	// centroids; every Lloyd iteration against all 4.
	if seeding := 16 * (1 + 2 + 3); dists <= seeding || (dists-seeding)%(16*4) != 0 {
		t.Errorf("kmeans computed %d distances, want 96 + a multiple of 64", dists)
	}
	if p := Purity(clusters, truth); p < 0.95 {
		t.Errorf("kmeans purity = %v, want >= 0.95", p)
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if cs, dists := KMeans(nil, 3, DefaultFloor, 0.5, 1, 10); cs != nil || dists != 0 {
		t.Error("kmeans of nothing should be nil and cost nothing")
	}
	shmaps, _ := makeGroups(1, 2, 64, 20, false, 1)
	// k larger than the thread count clamps.
	cs, _ := KMeans(shmaps, 10, DefaultFloor, 0.5, 1, 10)
	total := 0
	for _, c := range cs {
		total += c.Size()
	}
	if total != 2 {
		t.Errorf("kmeans lost threads: %d placed, want 2", total)
	}
}

func TestHierarchicalRecoversGroups(t *testing.T) {
	shmaps, truth := makeGroups(3, 4, 256, 30, true, 5)
	clusters := Hierarchical(shmaps, DefaultConfig())
	if len(clusters) != 3 {
		t.Fatalf("hierarchical found %d clusters, want 3", len(clusters))
	}
	if p := Purity(clusters, truth); p != 1.0 {
		t.Errorf("hierarchical purity = %v, want 1.0", p)
	}
}

func TestHierarchicalEmpty(t *testing.T) {
	if Hierarchical(nil, DefaultConfig()) != nil {
		t.Error("hierarchical of nothing should be nil")
	}
}

func TestAlternativeMetricsInOnePass(t *testing.T) {
	shmaps, truth := makeGroups(2, 6, 256, 40, false, 9)
	for name, tc := range map[string]struct {
		metric    Metric
		threshold float64
	}{
		"cosine":  {Cosine, 0.5},
		"jaccard": {Jaccard, 0.3},
	} {
		cfg := DefaultConfig()
		cfg.Metric = tc.metric
		cfg.Threshold = tc.threshold
		clusters := cfg.Cluster(shmaps)
		if len(clusters) != 2 {
			t.Errorf("%s: %d clusters, want 2", name, len(clusters))
			continue
		}
		if p := Purity(clusters, truth); p != 1.0 {
			t.Errorf("%s purity = %v, want 1.0", name, p)
		}
	}
}
