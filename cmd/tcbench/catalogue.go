package main

// The four workloads. Names are the ledger's row keys: later issues cite
// their before/after by these names, so they never change.
const (
	wlMachineSerial   = "machine-serial-open720"
	wlMachineDeferred = "machine-deferred-32way"
	wlGridPaper       = "grid-paper"
	wlServiceFloor    = "service-floor"
)

// workloadDef is one row of the workload table; Why is the recorded
// reason the workload exists (BENCHMARK.json carries the same line).
type workloadDef struct {
	Name string
	Why  string
}

// workloadCatalogue lists the workloads in run order.
var workloadCatalogue = []workloadDef{
	{wlMachineSerial, "unconfined write-heavy specjbb on 2 chips: every round takes the serial immediate-coherence path, so generator Next, Hierarchy.Access and the PMU batch do all the work"},
	{wlMachineDeferred, "confined volano on 8 chips: the same cache layer used the other way, Lane.Access plus deferred mailboxes, SliceBarrier and one goroutine per chip; the generator is cheap"},
	{wlGridPaper, "the Fig. 6/7 grid (4 workloads x default/clustered) via RunGrid, then via a loopback fleet: core sampling, clustering, metrics merge and the sweep pool work; service layers should cost near zero"},
	{wlServiceFloor, "1/1/1-round cells so simulation is a small share of a job: server, client, fleet, workload construction and metrics encoding dominate; closed loop with 1 and then P clients"},
}

// Metric kinds. H metrics are host time (noisy, judged against a bound),
// S metrics are simulated statistics that repeat exactly for one seed
// (judged for equality), C metrics are host-dependent counts reported
// without a verdict.
const (
	kindHost  = "H"
	kindSim   = "S"
	kindCount = "C"
)

// metricDef is one row of the metric catalogue.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an H metric may
	// worsen before `tcbench compare` calls it worse; 0 on S and C rows.
	Bound float64
	Kind  string
	// Layer is the module the metric belongs to, or "e2e".
	Layer string
	// On lists the workloads that measure the metric; nil means all.
	On []string
}

func (d metricDef) appliesTo(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	onMachines = []string{wlMachineSerial, wlMachineDeferred}
	onDeferred = []string{wlMachineDeferred}
	onGrid     = []string{wlGridPaper}
	onFloor    = []string{wlServiceFloor}
	onServices = []string{wlGridPaper, wlServiceFloor}
)

// contractE2E are the end-to-end metrics every workload measures: the
// `end_to_end` list of BENCHMARK.json, printed on the result line of an
// untraced run. They are the coarse guard the benchmark driver applies;
// the workload-specific figures in namedE2E are the ones issues cite.
// The driver refuses a benchmark whose run-to-run spread exceeds a bound,
// and on the shared reference box ten-run spreads of timed_wall_s reached
// 17 % and of peak_rss_mb 9 % (README.md), hence the wide bounds.
var contractE2E = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: kindHost, Layer: "e2e"},
	{Name: "timed_wall_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: kindHost, Layer: "e2e"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Kind: kindHost, Layer: "e2e"},
}

// namedE2E are the end-to-end figures that exist on some workloads only.
// They come from the untraced pass like contractE2E and carry bounds for
// `tcbench compare`; BENCHMARK.json can list them only under per_layer,
// because its end_to_end metrics must exist on every workload.
var namedE2E = []metricDef{
	{Name: "sim_refs_per_s", Unit: "refs/s", Better: "higher", Bound: 0.10, Kind: kindHost, Layer: "e2e", On: onMachines},
	{Name: "sim_cpi", Unit: "cycles/inst", Better: "lower", Kind: kindSim, Layer: "e2e", On: onMachines},
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.10, Kind: kindHost, Layer: "e2e", On: onGrid},
	{Name: "fleet_cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.10, Kind: kindHost, Layer: "e2e", On: onGrid},
	{Name: "paper.remote_stall_reduction_pct", Unit: "%", Better: "higher", Kind: kindSim, Layer: "e2e", On: onGrid},
	{Name: "paper.throughput_gain_pct", Unit: "%", Better: "higher", Kind: kindSim, Layer: "e2e", On: onGrid},
	{Name: "job_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Kind: kindHost, Layer: "e2e", On: onFloor},
	{Name: "job_latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10, Kind: kindHost, Layer: "e2e", On: onFloor},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.10, Kind: kindHost, Layer: "e2e", On: onFloor},
	{Name: "fleet_grid_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Kind: kindHost, Layer: "e2e", On: onFloor},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Kind: kindSim, Layer: "e2e"},
}

// layerMetrics are the per-layer figures of the traced pass, in module
// order. The arrows of the README's interaction list say which
// end-to-end metric each one should move.
var layerMetrics = []metricDef{
	{Name: "workloads.build_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "workloads"},
	{Name: "workloads.next_ns_per_ref", Unit: "ns/ref", Better: "lower", Kind: kindHost, Layer: "workloads", On: onMachines},
	{Name: "workloads.next_share", Unit: "ratio", Better: "lower", Kind: kindHost, Layer: "workloads", On: onMachines},

	{Name: "cache.access_ns_per_ref", Unit: "ns/ref", Better: "lower", Kind: kindHost, Layer: "cache", On: onMachines},
	{Name: "cache.lane_access_ns_per_ref", Unit: "ns/ref", Better: "lower", Kind: kindHost, Layer: "cache", On: onDeferred},
	{Name: "cache.barrier_us_per_slice", Unit: "us", Better: "lower", Kind: kindHost, Layer: "cache", On: onDeferred},
	{Name: "cache.broadcast_refs_per_s", Unit: "refs/s", Better: "higher", Kind: kindHost, Layer: "cache", On: onMachines},
	{Name: "cache.share", Unit: "ratio", Better: "lower", Kind: kindHost, Layer: "cache", On: onMachines},
	{Name: "cache.accesses", Unit: "count", Better: "lower", Kind: kindSim, Layer: "cache", On: onMachines},
	{Name: "cache.l1_miss_ratio", Unit: "ratio", Better: "lower", Kind: kindSim, Layer: "cache", On: onMachines},
	{Name: "cache.remote_share", Unit: "ratio", Better: "lower", Kind: kindSim, Layer: "cache", On: onMachines},
	{Name: "cache.invalidations", Unit: "count", Better: "lower", Kind: kindSim, Layer: "cache", On: onMachines},
	{Name: "cache.upgrades", Unit: "count", Better: "lower", Kind: kindSim, Layer: "cache", On: onMachines},
	{Name: "cache.writebacks", Unit: "count", Better: "lower", Kind: kindSim, Layer: "cache", On: onMachines},
	{Name: "cache.directory_peak_lines", Unit: "count", Better: "lower", Kind: kindSim, Layer: "cache", On: onMachines},
	{Name: "cache.snoop_probes_avoided", Unit: "count", Better: "higher", Kind: kindSim, Layer: "cache", On: onMachines},

	{Name: "pmu.observe_ns_per_ref", Unit: "ns/ref", Better: "lower", Kind: kindHost, Layer: "pmu", On: onMachines},
	{Name: "pmu.share", Unit: "ratio", Better: "lower", Kind: kindHost, Layer: "pmu", On: onMachines},
	{Name: "pmu.overflow_cycles_pct", Unit: "%", Better: "lower", Kind: kindSim, Layer: "pmu", On: onGrid},

	{Name: "sched.round_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "sched", On: onMachines},
	{Name: "sched.migrations", Unit: "count", Better: "lower", Kind: kindSim, Layer: "sched", On: onMachines},
	{Name: "sched.steals", Unit: "count", Better: "lower", Kind: kindSim, Layer: "sched", On: onMachines},

	{Name: "sim.new_machine_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "sim", On: onMachines},
	{Name: "sim.rounds_per_s", Unit: "1/s", Better: "higher", Kind: kindHost, Layer: "sim", On: onMachines},
	{Name: "sim.seq_refs_per_s", Unit: "refs/s", Better: "higher", Kind: kindHost, Layer: "sim", On: onDeferred},
	{Name: "sim.parallel_speedup", Unit: "ratio", Better: "higher", Kind: kindHost, Layer: "sim", On: onDeferred},
	{Name: "sim.glue_share", Unit: "ratio", Better: "lower", Kind: kindHost, Layer: "sim", On: onMachines},
	{Name: "sim.mallocs_per_kref", Unit: "1/kref", Better: "lower", Kind: kindCount, Layer: "sim", On: onMachines},
	{Name: "sim.snapshot_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "sim", On: onDeferred},
	{Name: "sim.snapshot_bytes", Unit: "bytes", Better: "lower", Kind: kindSim, Layer: "sim", On: onDeferred},
	{Name: "sim.restore_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "sim", On: onDeferred},

	{Name: "core.engine_wall_ratio", Unit: "ratio", Better: "lower", Kind: kindHost, Layer: "core", On: onGrid},
	{Name: "core.activations", Unit: "count", Better: "lower", Kind: kindSim, Layer: "core", On: onGrid},
	{Name: "core.samples_read", Unit: "count", Better: "lower", Kind: kindSim, Layer: "core", On: onGrid},
	{Name: "core.samples_admitted", Unit: "count", Better: "lower", Kind: kindSim, Layer: "core", On: onGrid},
	{Name: "core.migrations", Unit: "count", Better: "lower", Kind: kindSim, Layer: "core", On: onGrid},
	{Name: "core.detection_cycles", Unit: "cycles", Better: "lower", Kind: kindSim, Layer: "core", On: onGrid},

	{Name: "clustering.cluster_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "clustering", On: onGrid},
	{Name: "clustering.purity", Unit: "ratio", Better: "higher", Kind: kindSim, Layer: "clustering", On: onGrid},

	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "metrics", On: onMachines},
	{Name: "metrics.delta_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "metrics", On: onMachines},
	{Name: "metrics.samples_per_snapshot", Unit: "count", Better: "lower", Kind: kindSim, Layer: "metrics", On: onMachines},
	{Name: "metrics.merge_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "metrics", On: onServices},
	{Name: "metrics.json_bytes_per_cell", Unit: "bytes", Better: "lower", Kind: kindSim, Layer: "metrics", On: onServices},

	{Name: "sweep.cell_wall_p50_s", Unit: "s", Better: "lower", Kind: kindHost, Layer: "sweep", On: onGrid},
	{Name: "sweep.cell_wall_max_s", Unit: "s", Better: "lower", Kind: kindHost, Layer: "sweep", On: onGrid},
	{Name: "sweep.pool_efficiency", Unit: "ratio", Better: "higher", Kind: kindHost, Layer: "sweep", On: onGrid},
	{Name: "experiments.compile_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "experiments", On: onServices},

	{Name: "server.normalize_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "server", On: onFloor},
	{Name: "server.submit_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "server", On: onFloor},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "server", On: onFloor},
	{Name: "server.run_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "server", On: onFloor},
	{Name: "server.payload_build_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "server", On: onFloor},
	{Name: "server.payload_bytes", Unit: "bytes", Better: "lower", Kind: kindSim, Layer: "server", On: onFloor},
	{Name: "server.events_per_job", Unit: "count", Better: "lower", Kind: kindSim, Layer: "server", On: onFloor},
	{Name: "server.rejected", Unit: "count", Better: "lower", Kind: kindCount, Layer: "server", On: onFloor},
	{Name: "server.job_latency_p99_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "server", On: onFloor},
	{Name: "server.overhead_share", Unit: "ratio", Better: "lower", Kind: kindHost, Layer: "server", On: onServices},

	{Name: "client.done_lag_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "client", On: onFloor},
	{Name: "client.result_fetch_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "client", On: onFloor},
	{Name: "client.payload_decode_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "client", On: onFloor},

	{Name: "fleet.partition_us", Unit: "us", Better: "lower", Kind: kindHost, Layer: "fleet", On: onServices},
	{Name: "fleet.plan_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "fleet", On: onServices},
	{Name: "fleet.merge_ms", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "fleet", On: onServices},
	{Name: "fleet.shard_ms_p50", Unit: "ms", Better: "lower", Kind: kindHost, Layer: "fleet", On: onServices},
	{Name: "fleet.shards_per_grid", Unit: "count", Better: "lower", Kind: kindSim, Layer: "fleet", On: onServices},
	{Name: "fleet.retries", Unit: "count", Better: "lower", Kind: kindCount, Layer: "fleet", On: onServices},
	{Name: "fleet.steals", Unit: "count", Better: "lower", Kind: kindCount, Layer: "fleet", On: onServices},
	{Name: "fleet.idle_share", Unit: "ratio", Better: "lower", Kind: kindHost, Layer: "fleet", On: onServices},
	{Name: "fleet.overhead_ratio", Unit: "ratio", Better: "lower", Kind: kindHost, Layer: "fleet", On: onServices},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Kind: kindHost, Layer: "trace"},
}

// perLayerCatalogue is BENCHMARK.json's per_layer list: the
// workload-specific end-to-end figures followed by the layer figures.
func perLayerCatalogue() []metricDef {
	return append(append([]metricDef(nil), namedE2E...), layerMetrics...)
}

// allMetrics lists every metric tcbench can emit, in print order, and
// metricIndex finds a row's position in it by name.
var (
	allMetrics  = append(append([]metricDef(nil), contractE2E...), perLayerCatalogue()...)
	metricIndex = func() map[string]int {
		idx := make(map[string]int, len(allMetrics))
		for i, d := range allMetrics {
			idx[d.Name] = i
		}
		return idx
	}()
)

// lookupMetric finds a catalogue row by name.
func lookupMetric(name string) (metricDef, bool) {
	i, ok := metricIndex[name]
	if !ok {
		return metricDef{}, false
	}
	return allMetrics[i], true
}

// Reference numbers from the paper's evaluation, printed beside the
// simulated figures with the error (Section 6: remote stalls cut by up
// to 70 %, throughput up by up to 7 %).
const (
	paperStallReductionPct = 70.0
	paperThroughputGainPct = 7.0
)

// Seeds. defaultSeed is what `tcbench all` uses when -seed is absent;
// heldOutSeed is never used while a change is being written, so a gain
// can be confirmed on inputs it was not tuned on.
const (
	defaultSeed = 20070321
	heldOutSeed = 77002471
)

// defaultSeconds is the time budget work is sized for when -seconds is
// absent; it equals BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// benchmarkDoc is the BENCHMARK.json document: the catalogue in the
// benchmark driver's schema. `tcbench catalogue` prints it, and a test
// holds the committed file to it.
type benchmarkDoc struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []docWorkload    `json:"workloads"`
	EndToEnd   []docBoundMetric `json:"end_to_end"`
	PerLayer   []docMetric      `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type docBoundMetric struct {
	docMetric
	Bound float64 `json:"bound"`
}

func catalogueDoc() benchmarkDoc {
	doc := benchmarkDoc{
		Command:    []string{"go", "run", "./cmd/tcbench"},
		Paths:      []string{"cmd/tcbench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadCatalogue {
		doc.Workloads = append(doc.Workloads, docWorkload(w))
	}
	for _, d := range contractE2E {
		doc.EndToEnd = append(doc.EndToEnd, docBoundMetric{docMetric{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayerCatalogue() {
		doc.PerLayer = append(doc.PerLayer, docMetric{d.Name, d.Unit, d.Better})
	}
	return doc
}
