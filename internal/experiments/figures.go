package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"threadcluster/internal/cache"
	"threadcluster/internal/clustering"
	"threadcluster/internal/memory"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
)

// Table1 reproduces Table 1: the IBM OpenPower 720 specification as the
// simulator is configured to model it.
func Table1() *stats.Table {
	topo := DefaultOptions().Topo
	caches := cache.Power5Config()
	t := stats.NewTable("Table 1: IBM OpenPower 720 specification", "Item", "Specification")
	t.AddRow("# of Chips", fmt.Sprintf("%d", topo.Chips))
	t.AddRow("# of Cores", fmt.Sprintf("%d per chip", topo.CoresPerChip))
	t.AddRow("CPU Cores", fmt.Sprintf("IBM Power5 (simulated), %d-way SMT", topo.ContextsPerCore))
	t.AddRow("L1 DCache", fmt.Sprintf("%dKB, %d-way associative, per core", caches.L1.SizeBytes>>10, caches.L1.Ways))
	t.AddRow("L2 Cache", fmt.Sprintf("%dMB, %d-way associative, per chip", caches.L2.SizeBytes>>20, caches.L2.Ways))
	t.AddRow("L3 Cache", fmt.Sprintf("%dMB, %d-way associative, per chip, off-chip", caches.L3.SizeBytes>>20, caches.L3.Ways))
	t.AddRow("Cache line", fmt.Sprintf("%dB", memory.LineSize))
	return t
}

// Figure1 reproduces the Figure 1 latency ladder, both as configured and
// as measured by probing the simulated hierarchy with controlled access
// sequences (a hit in each level, a cross-chip transfer, a memory fill).
func Figure1(opt Options) (*stats.Table, error) {
	mcfg := MachineConfig(opt, sched.PolicyDefault)
	lat := mcfg.Lat
	h, err := cache.NewHierarchy(mcfg.Topo, lat, mcfg.Caches)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 1: memory-hierarchy access latencies (cycles)",
		"Source", "Configured", "Measured")

	next := memory.Addr(0x100000)
	alloc := func() memory.Addr { next += 64 * memory.LineSize; return next }

	// L1: access twice from CPU 0.
	a := alloc()
	h.Access(0, a, false)
	r := h.Access(0, a, false)
	t.AddRowf("L1 hit (same core)", lat.L1Hit, r.Cycles)

	// L2: fill from CPU 0, read from CPU 2 (other core, same chip).
	a = alloc()
	h.Access(0, a, false)
	r = h.Access(2, a, false)
	t.AddRowf("L2 hit (same chip)", lat.L2Hit, r.Cycles)

	// Remote L2: fill on chip 0, read from chip 1.
	a = alloc()
	h.Access(0, a, false)
	r = h.Access(4, a, false)
	t.AddRowf("Remote L2 (cross chip)", lat.RemoteL2, r.Cycles)

	// Memory: cold line.
	a = alloc()
	r = h.Access(0, a, false)
	t.AddRowf("Memory", lat.Memory, r.Cycles)

	t.AddRowf("L3 hit (same chip)", lat.L3Hit, "(victim-cache path)")
	t.AddRowf("Remote L3", lat.RemoteL3, "(victim-cache path)")
	return t, nil
}

// Figure3 reproduces the Figure 3 stall breakdown: the CPI stack of one
// workload under default scheduling, with data-cache stalls attributed to
// the source that satisfied each miss.
func Figure3(ctx context.Context, workload string, opt Options) (*stats.Table, pmu.Breakdown, error) {
	tables, breakdowns, err := figure3(ctx, []string{workload}, opt)
	if err != nil {
		return nil, pmu.Breakdown{}, err
	}
	return tables[0], breakdowns[0], nil
}

// figure3 breaks down each workload: Figure 6's default-placement cells.
func figure3(ctx context.Context, names []string, opt Options) ([]*stats.Table, []pmu.Breakdown, error) {
	cells := make([]cell[RunMetrics], len(names))
	for i, name := range names {
		cells[i] = workloadCell(name, sched.PolicyDefault, opt)
	}
	runs, err := runCells(ctx, cells)
	if err != nil {
		return nil, nil, err
	}
	tables := make([]*stats.Table, len(names))
	breakdowns := make([]pmu.Breakdown, len(names))
	for i, res := range runs {
		b := res.Breakdown
		tables[i] = StallTable(fmt.Sprintf("Figure 3: stall breakdown for %s (CPI %.3f)", names[i], b.CPI()), b)
		breakdowns[i] = b
	}
	return tables, breakdowns, nil
}

// StallTable renders a CPI stack as the Figure 3 table: completion
// cycles, every stall source, and the remote total, each as a share of
// all cycles.
func StallTable(title string, b pmu.Breakdown) *stats.Table {
	t := stats.NewTable(title, "Component", "Share of cycles")
	t.AddRow("completion", stats.Pct(stats.Ratio(float64(b.Completion), float64(b.Cycles))))
	for _, ev := range pmu.StallEvents() {
		t.AddRow(ev.String(), stats.Pct(b.Fraction(ev)))
	}
	t.AddRow("remote-total", stats.Pct(b.RemoteFraction()))
	return t
}

// Figure5Result is the shMap visualization for one workload.
type Figure5Result struct {
	Workload string
	// Heatmap is the ASCII rendering: one row per thread, grouped by
	// detected cluster, globally shared columns removed.
	Heatmap string
	// Clusters is the detected clustering.
	Clusters []clustering.Cluster
	// Purity and RandIndex score the clustering against the workload's
	// ground-truth partition.
	Purity    float64
	RandIndex float64
}

// Figure5 reproduces Figure 5: for each of the four workloads, run the
// detection phase and render each thread's shMap as a gray-scale row,
// rows grouped by detected cluster, with globally shared entries removed
// "to simplify the picture". SPECjbb runs with 4 warehouses as in the
// paper's footnote 3.
func Figure5(ctx context.Context, opt Options) ([]Figure5Result, error) {
	names := AllWorkloads()
	cells := make([]cell[*detectionSnapshot], len(names))
	for i, name := range names {
		workload := workloadBuild{name: name}
		if name == JBB {
			// Footnote 3: "For illustration purposes, SPECjbb was run with 4
			// warehouses."
			workload.jbb = [2]int{4, 4}
		}
		cells[i] = detectCell(workload, clustering.DefaultEntries, opt)
	}
	detections, err := runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	results := make([]Figure5Result, len(names))
	for i, d := range detections {
		results[i] = renderFigure5(names[i], d)
	}
	return results, nil
}

func renderFigure5(name string, d *detectionSnapshot) Figure5Result {
	shmaps := d.shmaps
	clusters := make([]clustering.Cluster, len(d.clusters))
	copy(clusters, d.clusters)
	clustering.SortBySize(clusters)

	shmapKeys := make([]clustering.ThreadKey, 0, len(shmaps))
	for tk := range shmaps {
		shmapKeys = append(shmapKeys, tk)
	}
	sort.Slice(shmapKeys, func(i, j int) bool { return shmapKeys[i] < shmapKeys[j] })
	entries := 0
	vecs := make([]*clustering.ShMap, 0, len(shmapKeys))
	for _, tk := range shmapKeys {
		m := shmaps[tk]
		vecs = append(vecs, m)
		if m.Len() > entries {
			entries = m.Len()
		}
	}
	mask := clustering.GlobalMask(vecs, entries, 0.5)

	var rows [][]uint8
	var labels []string
	for ci, c := range clusters {
		members := append([]clustering.ThreadKey{}, c.Members...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		for _, tk := range members {
			m, ok := shmaps[tk]
			if !ok {
				continue
			}
			row := make([]uint8, 0, entries)
			for e := 0; e < m.Len(); e++ {
				if mask[e] {
					continue // globally shared data removed, as in the figure
				}
				row = append(row, m.Get(e))
			}
			rows = append(rows, row)
			labels = append(labels, fmt.Sprintf("c%d/t%d", ci, tk))
		}
	}

	truth := d.truth
	return Figure5Result{
		Workload:  name,
		Heatmap:   stats.Heatmap(rows, labels),
		Clusters:  clusters,
		Purity:    clustering.Purity(clusters, truth),
		RandIndex: clustering.RandIndex(clusters, truth),
	}
}

// String renders the Figure 5 result for the terminal.
func (r Figure5Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- Figure 5: shMap vectors for %s (%d clusters, purity %.2f, rand %.2f) --\n",
		r.Workload, len(r.Clusters), r.Purity, r.RandIndex)
	sb.WriteString(r.Heatmap)
	return sb.String()
}
