package sim

import (
	"fmt"

	"threadcluster/internal/cache"
	"threadcluster/internal/metrics"
	"threadcluster/internal/pmu"
	"threadcluster/internal/topology"
)

// Metric names exported by a Machine's registry. One snapshot of the
// registry answers "what did this run do" across every layer — caches,
// scheduler, PMUs and the execution engine — without parsing report
// strings.
const (
	// MetricRounds counts completed scheduling rounds.
	MetricRounds = "sim_rounds_total"
	// MetricClock is machine time in cycles.
	MetricClock = "sim_clock_cycles"
	// MetricUtilization is the dispatched fraction of CPU-quanta.
	MetricUtilization = "sim_utilization"
	// MetricThreads is the number of installed threads.
	MetricThreads = "sim_threads"
	// MetricOps counts application-level operations completed.
	MetricOps = "sim_ops_total"
	// MetricOverhead counts cycles burned in PMU overflow handlers and
	// access observers (the engine's runtime overhead).
	MetricOverhead = "sim_overhead_cycles_total"
	// MetricRunqueueDepth is a histogram of the machine-wide runqueue
	// depth observed at every round boundary.
	MetricRunqueueDepth = "sim_runqueue_depth"

	// MetricCacheAccesses counts accesses per satisfying source
	// (label "source": L1, L2, L3, remote-L2, remote-L3, memory,
	// remote-memory) — the per-source miss attribution.
	MetricCacheAccesses = "cache_accesses_total"
	// MetricCacheAccessCycles is the latency charged per source.
	MetricCacheAccessCycles = "cache_access_cycles_total"
	// MetricCacheInvalidations counts coherence invalidations sent.
	MetricCacheInvalidations = "cache_invalidations_total"
	// MetricCacheUpgrades counts Shared->Modified write upgrades.
	MetricCacheUpgrades = "cache_upgrades_total"
	// MetricCacheWritebacks counts dirty last-level evictions.
	MetricCacheWritebacks = "cache_writebacks_total"
	// MetricCacheDirectoryLines is the coherence directory's occupancy:
	// how many cache lines it currently tracks (0 in broadcast mode).
	MetricCacheDirectoryLines = "cache_directory_lines"
	// MetricCacheDirectoryPeak is the directory's peak occupancy.
	MetricCacheDirectoryPeak = "cache_directory_peak_lines"
	// MetricCacheSnoopProbesAvoided counts cache probes the directory
	// answered from presence bits instead of broadcast scanning — the
	// snoop-savings counter.
	MetricCacheSnoopProbesAvoided = "cache_snoop_probes_avoided_total"

	// MetricSchedMigrations counts thread migrations.
	MetricSchedMigrations = "sched_migrations_total"
	// MetricSchedSteals counts reactive-balance steals.
	MetricSchedSteals = "sched_steals_total"
	// MetricSchedQueued is the current machine-wide runqueue depth.
	MetricSchedQueued = "sched_runqueue_depth"

	// MetricPMUCycles / MetricPMUInsts / MetricPMUStalls expose the
	// machine-wide CPI stack (label "event" on the stall series).
	MetricPMUCycles = "pmu_cycles_total"
	MetricPMUInsts  = "pmu_insts_total"
	MetricPMUStalls = "pmu_stall_cycles_total"

	// MetricMuxRotations counts PMU-multiplexer group rotations per CPU
	// (label "cpu"), registered when a multiplexer is attached.
	MetricMuxRotations = "pmu_mux_rotations_total"
)

// Metrics returns the machine's metrics registry. Components attached to
// the machine (the clustering engine, experiment harnesses) register
// their own series here so one snapshot covers the whole system.
func (m *Machine) Metrics() *metrics.Registry {
	m.live()
	return m.metrics
}

// SnapshotMetrics captures every registered series. Collector functions
// are evaluated against the machine's current state; call it only
// between rounds (like any other machine inspection).
func (m *Machine) SnapshotMetrics() metrics.Snapshot {
	m.live()
	return m.metrics.Snapshot()
}

// Rounds returns how many scheduling rounds have completed.
func (m *Machine) Rounds() uint64 { return m.rounds }

// registerMetrics wires the machine's components into its registry.
// Everything is a collector function over state the simulator already
// maintains, so the single-goroutine hot path stays untouched; the only
// direct instrument is the per-round runqueue-depth histogram.
func (m *Machine) registerMetrics() {
	r := metrics.NewRegistry()
	m.metrics = r

	r.RegisterCounterFunc(MetricRounds, nil, func() uint64 { return m.rounds })
	r.RegisterGaugeFunc(MetricClock, nil, func() float64 { return float64(m.clock) })
	r.RegisterGaugeFunc(MetricUtilization, nil, m.Utilization)
	r.RegisterGaugeFunc(MetricThreads, nil, func() float64 { return float64(len(m.threads)) })
	r.RegisterCounterFunc(MetricOps, nil, m.TotalOps)
	r.RegisterCounterFunc(MetricOverhead, nil, func() uint64 { return m.overhead })
	m.depthHist = r.Histogram(MetricRunqueueDepth, nil,
		[]uint64{0, 1, 2, 4, 8, 16, 32, 64, 128})

	// Per-source cache attribution.
	for s := 0; s < cache.NumSources; s++ {
		src := cache.Source(s)
		labels := metrics.Labels{"source": src.String()}
		r.RegisterCounterFunc(MetricCacheAccesses, labels, func() uint64 {
			return m.hier.SourceCounts()[src]
		})
		r.RegisterCounterFunc(MetricCacheAccessCycles, labels, func() uint64 {
			return m.hier.SourceCycles()[src]
		})
	}
	r.RegisterCounterFunc(MetricCacheInvalidations, nil, m.hier.InvalidationsSent)
	r.RegisterCounterFunc(MetricCacheUpgrades, nil, m.hier.Upgrades)
	r.RegisterCounterFunc(MetricCacheWritebacks, nil, m.hier.Writebacks)
	mode := metrics.Labels{"mode": m.hier.Coherence().String()}
	r.RegisterGaugeFunc(MetricCacheDirectoryLines, mode, func() float64 {
		return float64(m.hier.DirectoryLines())
	})
	r.RegisterGaugeFunc(MetricCacheDirectoryPeak, mode, func() float64 {
		return float64(m.hier.DirectoryPeakLines())
	})
	r.RegisterCounterFunc(MetricCacheSnoopProbesAvoided, mode, m.hier.SnoopProbesAvoided)

	// Scheduler.
	r.RegisterCounterFunc(MetricSchedMigrations, nil, m.sch.Migrations)
	r.RegisterCounterFunc(MetricSchedSteals, nil, m.sch.Steals)
	r.RegisterGaugeFunc(MetricSchedQueued, nil, func() float64 { return float64(m.sch.TotalQueued()) })

	// Machine-wide CPI stack from the exact PMU counts.
	sumCounts := func(ev pmu.Event) uint64 {
		var t uint64
		for _, p := range m.pmus {
			t += p.Count(ev)
		}
		return t
	}
	r.RegisterCounterFunc(MetricPMUCycles, nil, func() uint64 { return sumCounts(pmu.EvCycles) })
	r.RegisterCounterFunc(MetricPMUInsts, nil, func() uint64 { return sumCounts(pmu.EvInstCompleted) })
	for _, ev := range pmu.StallEvents() {
		ev := ev
		r.RegisterCounterFunc(MetricPMUStalls, metrics.Labels{"event": ev.String()},
			func() uint64 { return sumCounts(ev) })
	}
}

// registerMuxMetrics exposes a CPU's multiplexer rotation count; called
// by AttachMux.
func (m *Machine) registerMuxMetrics(cpu topology.CPUID, mux *pmu.Multiplexer) {
	m.metrics.RegisterCounterFunc(MetricMuxRotations,
		metrics.Labels{"cpu": fmt.Sprintf("%d", int(cpu))}, mux.Rotations)
}
