package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/clustering"
	"threadcluster/internal/rng"
	"threadcluster/internal/stats"
)

// kmeansStream is K-means's tie-break stream under the run seed, which
// the scheduler that placed the threads draws from directly.
const kmeansStream = 0x4B4D

// AblationRow scores one clustering algorithm or similarity metric on
// shMaps captured from a real detection run.
type AblationRow struct {
	Algorithm string
	Clusters  int
	Purity    float64
	RandIndex float64
	// Sampled is how many threads the detection sampled well enough to
	// place (sampledThreads), and SampledPurity the purity over those
	// threads alone: the algorithm's own quality, apart from how many
	// threads the detection left it nothing to work with.
	Sampled       int
	SampledPurity float64
	// Comparisons is the clustering pass's cost in vector comparisons:
	// similarity-metric calls, or K-means's point-centroid distances. It
	// is the dimension that rules the "full-blown" algorithms out of an
	// online engine (Section 4.4.2).
	Comparisons int
}

// Ablation reproduces the study the paper defers to future work
// (Section 8): compare the light-weight one-pass clusterer against
// K-means and agglomerative hierarchical clustering, and the dot-product
// similarity metric against cosine and Jaccard, on the shMaps captured
// from one SPECjbb detection phase.
func Ablation(ctx context.Context, opt Options) ([]AblationRow, *stats.Table, error) {
	d, scaled, keep, err := jbbDetection(ctx, opt)
	if err != nil {
		return nil, nil, err
	}
	shmaps, truth := d.shmaps, d.truth

	run := func(name string, f func(n *int) []clustering.Cluster) AblationRow {
		var n int
		clusters := f(&n)
		return AblationRow{
			Algorithm:     name,
			Clusters:      len(clusters),
			Purity:        clustering.Purity(clusters, truth),
			RandIndex:     clustering.RandIndex(clusters, truth),
			Sampled:       len(keep),
			SampledPurity: clustering.Purity(among(clusters, keep), truth),
			Comparisons:   n,
		}
	}
	onePass := func(metric clustering.Metric, threshold float64) func(n *int) []clustering.Cluster {
		return func(n *int) []clustering.Cluster {
			cfg := scaled
			cfg.Metric, cfg.Threshold = counted(metric, n), threshold
			return cfg.Cluster(shmaps)
		}
	}

	rows := []AblationRow{
		run("one-pass dot-product (paper)", onePass(scaled.Metric, scaled.Threshold)),
		run("one-pass cosine", onePass(clustering.Cosine, 0.5)),
		run("one-pass jaccard", onePass(clustering.Jaccard, 0.3)),
		run(fmt.Sprintf("k-means (k=%d, oracle)", d.partitions), func(n *int) (c []clustering.Cluster) {
			c, *n = clustering.KMeans(shmaps, d.partitions, scaled.Floor, scaled.GlobalFraction, rng.Derive(opt.Seed, kmeansStream), 50)
			return c
		}),
		run("hierarchical avg-linkage", func(n *int) []clustering.Cluster {
			cfg := scaled
			cfg.Metric = counted(scaled.Metric, n)
			return clustering.Hierarchical(shmaps, cfg)
		}),
	}

	t := stats.NewTable("Ablation: clustering algorithms and similarity metrics (SPECjbb shMaps)",
		"Algorithm", "Clusters", "Purity", "Rand index", "Comparisons")
	for _, r := range rows {
		t.AddRow(r.Algorithm,
			fmt.Sprintf("%d", r.Clusters),
			fmt.Sprintf("%.3f", r.Purity),
			fmt.Sprintf("%.3f", r.RandIndex),
			fmt.Sprintf("%d", r.Comparisons))
	}
	return rows, t, nil
}

// counted wraps metric so that every call adds one to *n.
func counted(metric clustering.Metric, n *int) clustering.Metric {
	return func(a, b *clustering.ShMap, floor uint8, mask []bool) float64 {
		*n++
		return metric(a, b, floor, mask)
	}
}

// sampledThreads returns the threads a detection gave enough samples to
// place: those whose shMap holds at least a quarter of an even share of
// the sample target. A detection ends when the machine as a whole has
// read its target, not when every thread has: of a warehouse's threads
// running on one chip in a slice, the first CPU in simulation order takes
// the remote misses and its chip-mates then hit the line locally, so
// about half the threads draw a tenth of the samples the rest do
// (ROADMAP item 7). A clusterer can be scored against the truth only on
// threads it was given data for.
func sampledThreads(shmaps map[clustering.ThreadKey]*clustering.ShMap, threads, target int) map[clustering.ThreadKey]bool {
	keep := make(map[clustering.ThreadKey]bool)
	for k, m := range shmaps {
		if 4*m.Total()*uint64(threads) >= uint64(target) {
			keep[k] = true
		}
	}
	return keep
}

// among returns clusters with every thread outside keep removed.
func among(clusters []clustering.Cluster, keep map[clustering.ThreadKey]bool) []clustering.Cluster {
	var out []clustering.Cluster
	for _, c := range clusters {
		var members []clustering.ThreadKey
		for _, k := range c.Members {
			if keep[k] {
				members = append(members, k)
			}
		}
		if len(members) > 0 {
			out = append(out, clustering.Cluster{Members: members})
		}
	}
	return out
}

// ThresholdPoint is one sweep point of the similarity-threshold
// sensitivity study. Sampled and SampledRand are the Rand index over the
// adequately sampled threads alone (sampledThreads).
type ThresholdPoint struct {
	Threshold   float64
	Clusters    int
	RandIndex   float64
	Sampled     int
	SampledRand float64
}

// ThresholdSensitivity sweeps the similarity threshold over three orders
// of magnitude on the shMaps of the ablation's SPECjbb detection (one
// simulation under `-exp all`) and reports how the clustering responds —
// the parameter-sensitivity question Section 8 leaves open. The expected
// shape: a wide plateau of correct clusterings between "too low"
// (everything merges) and "too high" (everything is a singleton).
func ThresholdSensitivity(ctx context.Context, opt Options) ([]ThresholdPoint, *stats.Table, error) {
	d, scaled, keep, err := jbbDetection(ctx, opt)
	if err != nil {
		return nil, nil, err
	}
	shmaps, truth := d.shmaps, d.truth
	thresholds := []float64{1, 10, 50, 100, 500, 1_000, 5_000, 20_000, 100_000, 1_000_000}
	var points []ThresholdPoint
	t := stats.NewTable("Similarity-threshold sensitivity (SPECjbb shMaps, dot-product metric)",
		"Threshold", "Clusters", "Rand index")
	for _, th := range thresholds {
		cfg := scaled
		cfg.Threshold = th
		clusters := cfg.Cluster(shmaps)
		p := ThresholdPoint{
			Threshold:   th,
			Clusters:    len(clusters),
			RandIndex:   clustering.RandIndex(clusters, truth),
			Sampled:     len(keep),
			SampledRand: clustering.RandIndex(among(clusters, keep), truth),
		}
		points = append(points, p)
		t.AddRow(fmt.Sprintf("%.0f", th), fmt.Sprintf("%d", p.Clusters), fmt.Sprintf("%.3f", p.RandIndex))
	}
	return points, t, nil
}
