package experiments

import (
	"context"
	"fmt"
	"time"

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
	// Elapsed is wall-clock cost of the clustering pass itself — the
	// dimension that rules the "full-blown" algorithms out of an online
	// engine (Section 4.4.2).
	Elapsed time.Duration
}

// Ablation reproduces the study the paper defers to future work
// (Section 8): compare the light-weight one-pass clusterer against
// K-means and agglomerative hierarchical clustering, and the dot-product
// similarity metric against cosine and Jaccard, on the shMaps captured
// from one SPECjbb detection phase.
func Ablation(ctx context.Context, opt Options) ([]AblationRow, *stats.Table, error) {
	shmaps, truth, spec, err := detectedShMaps(ctx, JBB, opt)
	if err != nil {
		return nil, nil, err
	}

	engine := ScaledEngineConfig(opt.Seed)
	scaled := engine.Clustering
	keep := sampledThreads(shmaps, len(truth), engine.TargetSamples)

	run := func(name string, f func() []clustering.Cluster) AblationRow {
		start := time.Now() //tclint:allow wallclock -- AblationRow.Elapsed reports real algorithm cost, not simulated time
		clusters := f()
		elapsed := time.Since(start) //tclint:allow wallclock -- pairs with the start stamp above
		return AblationRow{
			Algorithm:     name,
			Clusters:      len(clusters),
			Purity:        clustering.Purity(clusters, truth),
			RandIndex:     clustering.RandIndex(clusters, truth),
			Sampled:       len(keep),
			SampledPurity: clustering.Purity(among(clusters, keep), truth),
			Elapsed:       elapsed,
		}
	}

	rows := []AblationRow{
		run("one-pass dot-product (paper)", func() []clustering.Cluster {
			return scaled.Cluster(shmaps)
		}),
		run("one-pass cosine", func() []clustering.Cluster {
			cfg := scaled
			cfg.Metric = clustering.Cosine
			cfg.Threshold = 0.5
			return cfg.Cluster(shmaps)
		}),
		run("one-pass jaccard", func() []clustering.Cluster {
			cfg := scaled
			cfg.Metric = clustering.Jaccard
			cfg.Threshold = 0.3
			return cfg.Cluster(shmaps)
		}),
		run(fmt.Sprintf("k-means (k=%d, oracle)", spec.NumPartitions), func() []clustering.Cluster {
			return clustering.KMeans(shmaps, spec.NumPartitions, scaled.Floor, scaled.GlobalFraction, rng.Derive(opt.Seed, kmeansStream), 50)
		}),
		run("hierarchical avg-linkage", func() []clustering.Cluster {
			return clustering.Hierarchical(shmaps, scaled)
		}),
	}

	t := stats.NewTable("Ablation: clustering algorithms and similarity metrics (SPECjbb shMaps)",
		"Algorithm", "Clusters", "Purity", "Rand index", "Cost")
	for _, r := range rows {
		t.AddRow(r.Algorithm,
			fmt.Sprintf("%d", r.Clusters),
			fmt.Sprintf("%.3f", r.Purity),
			fmt.Sprintf("%.3f", r.RandIndex),
			r.Elapsed.Round(time.Microsecond).String())
	}
	return rows, t, nil
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
// of magnitude on shMaps captured from one SPECjbb detection and reports
// how the clustering responds — the parameter-sensitivity question
// Section 8 leaves open. The expected shape: a wide plateau of correct
// clusterings between "too low" (everything merges) and "too high"
// (everything is a singleton).
func ThresholdSensitivity(ctx context.Context, opt Options) ([]ThresholdPoint, *stats.Table, error) {
	shmaps, truth, _, err := detectedShMaps(ctx, JBB, opt)
	if err != nil {
		return nil, nil, err
	}
	engine := ScaledEngineConfig(opt.Seed)
	scaled := engine.Clustering
	keep := sampledThreads(shmaps, len(truth), engine.TargetSamples)
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
