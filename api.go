package threadcluster

// This file is the library's public API surface: the internal packages'
// core types re-exported by alias, so downstream users can build machines,
// install workloads and attach the thread-clustering engine without
// importing internal paths.
//
// A minimal session — build, run, snapshot, restore, resume:
//
//	mcfg := threadcluster.DefaultMachineConfig()
//	mcfg.Policy = threadcluster.PolicyClustered
//	install := func(m *threadcluster.Machine) error {
//		arena := threadcluster.NewArena()
//		spec, err := threadcluster.NewSyntheticWorkload(arena, threadcluster.DefaultSyntheticConfig())
//		if err != nil {
//			return err
//		}
//		if err := spec.Install(m); err != nil {
//			return err
//		}
//		engine, err := threadcluster.NewEngine(m, threadcluster.DefaultEngineConfig())
//		if err != nil {
//			return err
//		}
//		return engine.Install()
//	}
//
//	machine, _ := threadcluster.NewMachine(mcfg)
//	_ = install(machine)
//	_ = machine.RunRoundsCtx(context.Background(), 1500)
//
//	snap, _ := machine.Snapshot(context.Background())
//	raw := snap.Encode() // canonical bytes; persist anywhere
//
//	decoded, _ := threadcluster.DecodeSnapshot(raw)
//	resumed, _ := threadcluster.RestoreMachine(mcfg, decoded, install)
//	_ = resumed.RunRoundsCtx(context.Background(), 1500)
//	// resumed is now byte-identical to a machine that ran 3000 rounds
//	// uninterrupted: same metrics, same PMU counts, same snapshot digest.

import (
	"context"

	"threadcluster/internal/cache"
	"threadcluster/internal/clustering"
	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/metrics"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/sweep"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// Machine simulation.
type (
	// Machine is the simulated SMP-CMP-SMT system: topology, coherent
	// cache hierarchy, per-CPU PMUs, scheduler and execution engine.
	Machine = sim.Machine
	// MachineConfig assembles a Machine.
	MachineConfig = sim.Config
	// Thread is one software thread: an ID, a memory-reference generator
	// and a ground-truth partition label.
	Thread = sim.Thread
	// MemRef is one unit of simulated work.
	MemRef = sim.MemRef
	// Generator produces a thread's reference stream.
	Generator = sim.Generator
)

// NewMachine builds a machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return sim.NewMachine(cfg) }

// DefaultMachineConfig returns the paper's evaluation platform: the
// OpenPower 720 topology, Figure 1 latencies and Table 1 caches.
func DefaultMachineConfig() MachineConfig { return sim.DefaultConfig() }

// Snapshot & restore.
type (
	// MachineSnapshot is a versioned, deterministic serialization of a
	// machine's complete mutable state — caches and coherence directory,
	// PMUs, scheduler, RNG streams, per-thread generator cursors, and
	// every registered state provider (e.g. the clustering engine).
	// Machine.Snapshot captures one; Encode/Digest render it canonically.
	MachineSnapshot = sim.MachineSnapshot
	// MachineStateProvider lets a component attached to a machine ride
	// along in snapshots as an opaque named section (see
	// Machine.RegisterStateProvider).
	MachineStateProvider = sim.StateProvider
)

// SnapshotVersion is the current MachineSnapshot encoding version.
const SnapshotVersion = sim.SnapshotVersion

// DecodeSnapshot parses a canonical encoding produced by
// MachineSnapshot.Encode, rejecting corrupt or mismatched input.
func DecodeSnapshot(b []byte) (*MachineSnapshot, error) { return sim.DecodeSnapshot(b) }

// RestoreMachine rebuilds a machine from its configuration and a
// snapshot. install must recreate the snapshotted machine's composition
// exactly — same threads in the same order, same engine and monitoring
// setup — because generators and handlers are live closures a snapshot
// cannot carry; the snapshot then overlays all mutable state.
func RestoreMachine(cfg MachineConfig, snap *MachineSnapshot, install func(*Machine) error) (*Machine, error) {
	return sim.RestoreMachine(cfg, snap, install)
}

// Topology and placement.
type (
	// Topology is the machine shape (chips x cores x SMT contexts).
	Topology = topology.Topology
	// CPUID identifies one hardware context.
	CPUID = topology.CPUID
	// Latencies is the memory-hierarchy cost ladder.
	Latencies = topology.Latencies
	// Policy selects a thread-placement strategy.
	Policy = sched.Policy
	// ThreadID identifies a software thread.
	ThreadID = sched.ThreadID
)

// The four placement strategies of the paper's Section 5.4.
const (
	PolicyDefault       = sched.PolicyDefault
	PolicyRoundRobin    = sched.PolicyRoundRobin
	PolicyHandOptimized = sched.PolicyHandOptimized
	PolicyClustered     = sched.PolicyClustered
)

// OpenPower720 is the paper's 2x2x2 evaluation machine.
func OpenPower720() Topology { return topology.OpenPower720() }

// Power5_32Way is the Section 7.4 8-chip machine.
func Power5_32Way() Topology { return topology.Power5_32Way() }

// DefaultLatencies is the Figure 1 latency ladder.
func DefaultLatencies() Latencies { return topology.DefaultLatencies() }

// Memory.
type (
	// Addr is a simulated virtual address.
	Addr = memory.Addr
	// Region is a contiguous allocation.
	Region = memory.Region
	// Arena allocates the simulated address space. One arena is one
	// machine's physical address space: all workloads installed on a
	// machine must share it.
	Arena = memory.Arena
)

// LineSize is the cache-line (and sharing-detection) granularity.
const LineSize = memory.LineSize

// NewArena returns a fresh simulated address space.
func NewArena() *Arena { return memory.NewDefaultArena() }

// Caches.
type (
	// CacheConfig sizes one cache level.
	CacheConfig = cache.Config
	// HierarchyConfig sizes the three levels and selects the coherence
	// implementation.
	HierarchyConfig = cache.HierarchyConfig
	// CoherenceMode selects how the hierarchy resolves cross-chip
	// coherence: a per-line directory (the default fast path) or
	// broadcast snooping. Both produce identical simulation results.
	CoherenceMode = cache.CoherenceMode
)

// Coherence implementations. CoherenceDirectory is the default and the
// zero value; CoherenceBroadcast is the reference implementation the
// directory is differentially tested against.
const (
	CoherenceDirectory = cache.CoherenceDirectory
	CoherenceBroadcast = cache.CoherenceBroadcast
)

// ParseCoherenceMode parses "directory" or "broadcast".
func ParseCoherenceMode(s string) (CoherenceMode, error) { return cache.ParseCoherenceMode(s) }

// Power5Caches returns Table 1's cache sizes.
func Power5Caches() HierarchyConfig { return cache.Power5Config() }

// The thread-clustering engine (the paper's contribution).
type (
	// Engine is the four-phase thread-clustering engine.
	Engine = core.Engine
	// EngineConfig parameterizes it; the defaults are the paper's values.
	EngineConfig = core.Config
	// EngineSnapshot is a structured point-in-time view of the engine
	// (phase, activation and migration counts, sampling progress, detected
	// clusters); Engine.Snapshot returns one and Engine.Report renders it.
	EngineSnapshot = core.EngineSnapshot
	// ClusterSnapshot is one detected cluster inside an EngineSnapshot.
	ClusterSnapshot = core.ClusterSnapshot
	// Cluster is a detected group of sharing threads.
	Cluster = clustering.Cluster
	// ShMap is a per-thread sharing signature.
	ShMap = clustering.ShMap
)

// NewEngine attaches a thread-clustering engine to a machine. Call
// Install on the result to arm it.
func NewEngine(m *Machine, cfg EngineConfig) (*Engine, error) { return core.New(m, cfg) }

// DefaultEngineConfig returns the paper's parameter choices (20%
// activation per 10^9-cycle window, 1-in-10 sampling, 10^6-sample target,
// 256-entry shMaps, dot-product similarity at threshold 40000). For
// second-scale simulations see the scaled values used throughout
// internal/experiments.
func DefaultEngineConfig() EngineConfig { return core.DefaultConfig() }

// Workloads.
type (
	// WorkloadSpec is a buildable workload: threads plus ground truth.
	WorkloadSpec = workloads.Spec
	// SyntheticConfig parameterizes the scoreboard microbenchmark.
	SyntheticConfig = workloads.SyntheticConfig
	// VolanoConfig parameterizes the chat-server workload.
	VolanoConfig = workloads.VolanoConfig
	// JBBConfig parameterizes the warehouse workload.
	JBBConfig = workloads.JBBConfig
	// RubisConfig parameterizes the auction-database workload.
	RubisConfig = workloads.RubisConfig
	// BTree is the warehouse/index structure laid out in simulated memory.
	// Lookup and Insert report the simulated addresses they touch by
	// appending to a caller-supplied trace, in the strconv.Append* idiom:
	//
	//	trace, found = tree.Lookup(trace[:0], key) // reuse one buffer
	//	trace, err = tree.Insert(nil, key)         // or take a fresh trace
	//
	// so a generator that replays traces allocates nothing per operation.
	BTree = workloads.BTree
)

// Workload constructors and their default configurations.
func NewSyntheticWorkload(a *Arena, cfg SyntheticConfig) (*WorkloadSpec, error) {
	return workloads.NewSynthetic(a, cfg)
}
func NewVolanoWorkload(a *Arena, cfg VolanoConfig) (*WorkloadSpec, error) {
	return workloads.NewVolano(a, cfg)
}
func NewJBBWorkload(a *Arena, cfg JBBConfig) (*WorkloadSpec, error) {
	return workloads.NewJBB(a, cfg)
}
func NewRubisWorkload(a *Arena, cfg RubisConfig) (*WorkloadSpec, error) {
	return workloads.NewRubis(a, cfg)
}
func DefaultSyntheticConfig() SyntheticConfig { return workloads.DefaultSyntheticConfig() }
func DefaultVolanoConfig() VolanoConfig       { return workloads.DefaultVolanoConfig() }
func DefaultJBBConfig() JBBConfig             { return workloads.DefaultJBBConfig() }
func DefaultRubisConfig() RubisConfig         { return workloads.DefaultRubisConfig() }

// Metrics. Every machine carries a metrics.Registry; Machine.SnapshotMetrics
// captures it as an immutable, deterministically ordered Snapshot that can
// be diffed (Delta), combined across machines (MergeSnapshots) and exported
// as JSON or CSV.
type (
	// MetricsRegistry is a concurrency-safe registry of named counters,
	// gauges and histograms with labeled series.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is an immutable point-in-time capture of a registry.
	MetricsSnapshot = metrics.Snapshot
	// MetricSample is one series inside a snapshot.
	MetricSample = metrics.Sample
	// MetricLabels distinguishes series that share a metric name.
	MetricLabels = metrics.Labels
)

// NewMetricsRegistry returns an empty registry, for instrumenting code
// outside a Machine (machines create their own).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MergeSnapshots sums snapshots from independent runs: counters and
// histogram buckets add, gauges sum.
func MergeSnapshots(snaps ...MetricsSnapshot) MetricsSnapshot {
	return metrics.MergeAll(snaps)
}

// Concurrent sweeps. The sweep helpers fan independent simulations across
// a worker pool with deterministic per-task seeding: results are identical
// for any worker count.
type (
	// SweepTask is one independent simulation to run on the pool.
	SweepTask = sweep.Task
	// SweepResult pairs a task with its outcome.
	SweepResult = sweep.Result
)

// RunSweep executes tasks on a pool of the given size (0 = GOMAXPROCS)
// and returns results in task order.
func RunSweep(ctx context.Context, tasks []SweepTask, workers int) ([]SweepResult, error) {
	return sweep.Run(ctx, tasks, workers)
}

// DeriveSeed decorrelates a per-task seed from a base seed and task index;
// the mapping is fixed, so sweeps are reproducible run to run.
func DeriveSeed(seed int64, index int) int64 { return sweep.DeriveSeed(seed, index) }
