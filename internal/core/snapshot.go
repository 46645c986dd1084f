package core

import (
	"fmt"
	"sort"
	"strings"

	"threadcluster/internal/clustering"
	"threadcluster/internal/sched"
)

// Engine metric names, registered on the machine's registry at Install.
// The four-phase pipeline (activation -> sampling -> clustering ->
// migration) is observable as the counter chain: activations, samples
// read/admitted, clusterings, migrations.
const (
	// MetricPhase is the engine's current phase as a gauge
	// (0 = monitoring, 1 = detecting).
	MetricPhase = "engine_phase"
	// MetricActivations counts monitoring->detection transitions.
	MetricActivations = "engine_activations_total"
	// MetricSamplesRead / MetricSamplesAdmitted count overflow samples
	// across all detection phases (cumulative, unlike SamplesRead).
	MetricSamplesRead     = "engine_samples_read_total"
	MetricSamplesAdmitted = "engine_samples_admitted_total"
	// MetricClusterings counts completed clustering passes.
	MetricClusterings = "engine_clusterings_total"
	// MetricMigrations counts threads the engine placed.
	MetricMigrations = "engine_migrations_total"
	// MetricClusters is the size of the latest clustering result.
	MetricClusters = "engine_clusters"
	// MetricDetectionCycles is the duration of the last detection phase.
	MetricDetectionCycles = "engine_detection_cycles"
	// MetricWindowRemoteFraction is the current monitoring-window remote
	// stall share the activation rule evaluates.
	MetricWindowRemoteFraction = "engine_window_remote_fraction"
)

// ClusterSnapshot is one detected cluster at snapshot time.
type ClusterSnapshot struct {
	// Size is the member count.
	Size int
	// Members are the cluster's threads, sorted.
	Members []clustering.ThreadKey
	// Chips maps chip -> how many members currently run there.
	Chips map[int]int
}

// EngineSnapshot is the engine's structured state: everything Report
// prints, as data. Snapshots are value copies — safe to retain across
// further simulation.
type EngineSnapshot struct {
	// Phase is the current engine phase.
	Phase Phase
	// Activations counts monitoring->detection transitions so far.
	Activations uint64
	// Migrations counts threads placed by the engine so far.
	Migrations uint64

	// SamplesRead and SamplesAdmitted cover the current (or most recent)
	// detection phase; TargetSamples is its completion threshold.
	SamplesRead     int
	SamplesAdmitted int
	TargetSamples   int
	// FilterClaimed / FilterEntries describe the process-wide shMap
	// filter's occupancy.
	FilterClaimed int
	FilterEntries int

	// WindowRemoteFraction is the remote-stall share of the current
	// monitoring window; ActivationFraction is the threshold it is
	// compared against.
	WindowRemoteFraction float64
	ActivationFraction   float64

	// LastDetectionCycles is how long the last completed detection phase
	// took (0 before the first).
	LastDetectionCycles uint64

	// Stability is the Rand-index agreement between the two most recent
	// clusterings; StabilityKnown reports whether two have happened.
	Stability      float64
	StabilityKnown bool

	// MinClusterSize is the threshold below which clusters are treated
	// as unclustered filler.
	MinClusterSize int
	// Clusters is the latest clustering result (nil before the first
	// detection completes), including sub-threshold clusters.
	Clusters []ClusterSnapshot
}

// Snapshot captures the engine's structured state. Report is rendered
// from exactly this data.
func (e *Engine) Snapshot() EngineSnapshot {
	s := EngineSnapshot{
		Phase:                e.phase,
		Activations:          e.activations,
		Migrations:           e.migrationsDone,
		SamplesRead:          e.samplesRead,
		SamplesAdmitted:      e.samplesAdmitted,
		TargetSamples:        e.cfg.TargetSamples,
		FilterClaimed:        e.filter.Claimed(),
		FilterEntries:        e.filter.Len(),
		WindowRemoteFraction: e.windowRemoteFraction(),
		ActivationFraction:   e.cfg.ActivationFraction,
		LastDetectionCycles:  e.lastDetectTime,
		Stability:            e.lastStability,
		StabilityKnown:       e.stabilityKnown,
		MinClusterSize:       e.cfg.MinClusterSize,
	}
	if e.clusters != nil {
		s.Clusters = make([]ClusterSnapshot, 0, len(e.clusters))
		for _, c := range e.clusters {
			cs := ClusterSnapshot{
				Size:    c.Size(),
				Members: append([]clustering.ThreadKey(nil), c.Members...),
				Chips:   make(map[int]int),
			}
			sort.Slice(cs.Members, func(i, j int) bool { return cs.Members[i] < cs.Members[j] })
			for _, tk := range cs.Members {
				if chip, ok := e.m.Scheduler().ChipOf(sched.ThreadID(tk)); ok {
					cs.Chips[chip]++
				}
			}
			s.Clusters = append(s.Clusters, cs)
		}
	}
	return s
}

// Report summarizes the engine's state for operators: phase, activation
// history, sampling progress and the current clustering, with each
// cluster's chip placement. It is a rendering of Snapshot.
func (e *Engine) Report() string {
	s := e.Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "thread-clustering engine: phase=%s activations=%d migrations=%d\n",
		s.Phase, s.Activations, s.Migrations)
	fmt.Fprintf(&sb, "  window: remote fraction %.2f%% (threshold %.2f%%)\n",
		100*s.WindowRemoteFraction, 100*s.ActivationFraction)
	if s.Phase == PhaseDetecting {
		fmt.Fprintf(&sb, "  detection: %d/%d samples read, %d admitted, filter %d/%d entries claimed\n",
			s.SamplesRead, s.TargetSamples, s.SamplesAdmitted, s.FilterClaimed, s.FilterEntries)
	}
	if s.Clusters != nil {
		fmt.Fprintf(&sb, "  clusters (%d):\n", len(s.Clusters))
		for i, c := range s.Clusters {
			if c.Size < s.MinClusterSize {
				continue
			}
			fmt.Fprintf(&sb, "    #%d: %d threads, chips %v\n", i, c.Size, c.Chips)
		}
	}
	return sb.String()
}

// registerMetrics publishes the engine's series on the machine's
// registry; called once from Install.
func (e *Engine) registerMetrics() {
	r := e.m.Metrics()
	r.RegisterGaugeFunc(MetricPhase, nil, func() float64 { return float64(e.phase) })
	r.RegisterCounterFunc(MetricActivations, nil, func() uint64 { return e.activations })
	r.RegisterCounterFunc(MetricSamplesRead, nil, func() uint64 { return e.cumSamplesRead })
	r.RegisterCounterFunc(MetricSamplesAdmitted, nil, func() uint64 { return e.cumSamplesAdmitted })
	r.RegisterCounterFunc(MetricClusterings, nil, func() uint64 { return e.clusterings })
	r.RegisterCounterFunc(MetricMigrations, nil, func() uint64 { return e.migrationsDone })
	r.RegisterGaugeFunc(MetricClusters, nil, func() float64 { return float64(len(e.clusters)) })
	r.RegisterGaugeFunc(MetricDetectionCycles, nil, func() float64 { return float64(e.lastDetectTime) })
	r.RegisterGaugeFunc(MetricWindowRemoteFraction, nil, e.windowRemoteFraction)
}
