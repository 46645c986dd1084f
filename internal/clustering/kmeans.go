package clustering

import (
	"math"
	"sort"

	"threadcluster/internal/rng"
)

// KMeans clusters shMap vectors into k groups with Lloyd's algorithm — one
// of the "standard machine learning algorithms" the paper rules out for
// online use because it needs k in advance and costs far more than the
// one-pass heuristic (Section 4.4.2). It is provided as an offline quality
// baseline for the ablation experiment.
//
// Globally shared entries are masked exactly as in the one-pass clusterer,
// the floor is applied, and vectors are treated as points in R^entries.
// The run is deterministic for a given seed. It also returns how many
// point-centroid distances it computed, its cost in vector comparisons.
func KMeans(shmaps map[ThreadKey]*ShMap, k int, floor uint8, globalFraction float64, seed int64, maxIter int) ([]Cluster, int) {
	keys := sortedKeys(shmaps)
	if len(keys) == 0 || k <= 0 {
		return nil, 0
	}
	if k > len(keys) {
		k = len(keys)
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	entries := 0
	vecsIn := make([]*ShMap, 0, len(keys))
	for _, kk := range keys {
		vecsIn = append(vecsIn, shmaps[kk])
		if shmaps[kk].Len() > entries {
			entries = shmaps[kk].Len()
		}
	}
	mask := GlobalMask(vecsIn, entries, globalFraction)

	// Materialize floored, masked points.
	points := make([][]float64, len(keys))
	for i, kk := range keys {
		p := make([]float64, entries)
		m := shmaps[kk]
		for e := 0; e < entries && e < m.Len(); e++ {
			if mask[e] {
				continue
			}
			p[e] = float64(floored(m.Get(e), floor))
		}
		points[i] = p
	}

	// k-means++ style seeding for stability: first centroid is the point
	// with the largest mass, then farthest-point heuristic.
	jitter := rng.New(seed)
	centroids := make([][]float64, 0, k)
	first := 0
	bestMass := -1.0
	for i, p := range points {
		m := 0.0
		for _, v := range p {
			m += v
		}
		if m > bestMass {
			bestMass, first = m, i
		}
	}
	centroids = append(centroids, cloneVec(points[first]))
	dists := 0
	for len(centroids) < k {
		dists += len(points) * len(centroids)
		far, farDist := 0, -1.0
		for i, p := range points {
			d := math.MaxFloat64
			for _, c := range centroids {
				if dd := sqDist(p, c); dd < d {
					d = dd
				}
			}
			// Tiny jitter breaks exact ties deterministically per seed.
			d += jitter.Float64() * 1e-9
			if d > farDist {
				far, farDist = i, d
			}
		}
		centroids = append(centroids, cloneVec(points[far]))
	}

	assign := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		dists += len(points) * k
		changed := false
		for i, p := range points {
			best, bestD := 0, math.MaxFloat64
			for ci, c := range centroids {
				if d := sqDist(p, c); d < bestD {
					best, bestD = ci, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for ci := range sums {
			sums[ci] = make([]float64, entries)
		}
		for i, p := range points {
			counts[assign[i]]++
			for e, v := range p {
				sums[assign[i]][e] += v
			}
		}
		for ci := range centroids {
			if counts[ci] == 0 {
				continue // keep the old centroid for empty clusters
			}
			for e := range sums[ci] {
				sums[ci][e] /= float64(counts[ci])
			}
			centroids[ci] = sums[ci]
		}
	}

	return groupsFromAssignment(keys, assign, k), dists
}

func sortedKeys(shmaps map[ThreadKey]*ShMap) []ThreadKey {
	keys := make([]ThreadKey, 0, len(shmaps))
	for k := range shmaps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func cloneVec(v []float64) []float64 {
	c := make([]float64, len(v))
	copy(c, v)
	return c
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return d
}

func groupsFromAssignment(keys []ThreadKey, assign []int, k int) []Cluster {
	byGroup := make(map[int][]ThreadKey)
	for i, g := range assign {
		byGroup[g] = append(byGroup[g], keys[i])
	}
	groups := make([]int, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	var out []Cluster
	for _, g := range groups {
		members := byGroup[g]
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, Cluster{Rep: members[0], Members: members})
	}
	return out
}
