package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"threadcluster/internal/core"
	"threadcluster/internal/metrics"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/sweep"
	"threadcluster/internal/topology"
)

// Topology names accepted by the sweep grid.
const (
	TopoOpenPower720 = "open720"
	TopoPower5_32    = "power5-32"
)

// DigestEpoch numbers the simulator's result epochs: a grid cell's
// metrics are a pure function of its CellKey, which holds this epoch.
// Epoch 1 began with the SplitMix64 generator. Bump it whenever any
// pinned digest moves (`make goldens`); TestDigestEpochPinned fails
// until you do. Records of completed cells are keyed by it, so a bump
// retires every record an older build wrote.
const DigestEpoch = 1

// ParseTopo resolves a topology name.
func ParseTopo(name string) (topology.Topology, error) {
	switch name {
	case TopoOpenPower720:
		return topology.OpenPower720(), nil
	case TopoPower5_32:
		return topology.Power5_32Way(), nil
	}
	return topology.Topology{}, fmt.Errorf("experiments: unknown topology %q", name)
}

// ParsePolicy resolves a placement-policy name (the Policy.String forms).
func ParsePolicy(name string) (sched.Policy, error) {
	for _, p := range comparisonPolicies {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown policy %q", name)
}

// GridSpec enumerates a configuration grid: every combination of
// topology x workload x policy, each run as one independent machine.
type GridSpec struct {
	Workloads []string
	Policies  []sched.Policy
	Topos     []string
	// BaseSeed derives each cell's seed. All policies of the same
	// (topology, workload) pair share a seed so their workload streams
	// are identical and policy effects are isolated; distinct pairs get
	// decorrelated seeds via sweep.DeriveSeed.
	BaseSeed int64
	// Opt carries the run lengths; Topo and Seed are overridden per cell.
	Opt Options
}

// GridCell is one configuration of the grid.
type GridCell struct {
	Workload string
	Policy   sched.Policy
	Topo     string
	Seed     int64
}

// Name renders the cell as "workload/policy/topo".
func (c GridCell) Name() string {
	return c.Workload + "/" + c.Policy.String() + "/" + c.Topo
}

// CellKey is the identity of a cell: the digest epoch, the cell's name
// and its Options, Topo and Seed included. A cell's result is a pure
// function of its key, so runCells' memo and the records of completed
// grid cells are keyed by it, and an Options field added later joins it
// by itself.
type CellKey struct {
	Epoch int     `json:"epoch"`
	Cell  string  `json:"cell"`
	Opt   Options `json:"opt"`
}

// Hash is the key's name: the hex sha256 of its canonical JSON.
func (k CellKey) Hash() string {
	data, _ := json.Marshal(k) // strings and integers always marshal
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// CellKey keys cell c of g: it is the key of the cell taskFor runs for
// c, so a record keyed by it serves any grid that holds the cell with the
// same seed and Options, and so does an -exp run of that cell.
func (g GridSpec) CellKey(c GridCell) CellKey {
	wc, _ := g.cell(c) // an unknown topology fails compiling the grid, not keying it
	return wc.key()
}

// Cells expands the grid in deterministic order (topology-major, then
// workload, then policy).
func (g GridSpec) Cells() []GridCell {
	var cells []GridCell
	for ti, topo := range g.Topos {
		for wi, wl := range g.Workloads {
			seed := sweep.DeriveSeed(g.BaseSeed, ti*len(g.Workloads)+wi)
			for _, pol := range g.Policies {
				cells = append(cells, GridCell{Workload: wl, Policy: pol, Topo: topo, Seed: seed})
			}
		}
	}
	return cells
}

// Tasks compiles the grid into sweep tasks. Each task builds its own
// machine, measures RunWorkload's interval and returns the run's metrics
// snapshot; the returned cells parallel the tasks index-wise.
func (g GridSpec) Tasks() ([]GridCell, []sweep.Task, error) { return g.SubsetTasks(nil) }

// SubsetTasks compiles only the grid cells at the given full-grid
// indices (every cell when indices is empty), preserving each cell's
// full-grid identity: names and seeds are exactly what Tasks would
// assign at those positions, so a shard of the grid executed elsewhere
// produces the same per-cell snapshots the whole grid would. Indices
// must be strictly increasing and in range (see CheckSubset). This is
// the partition primitive the fleet coordinator shards jobs with.
func (g GridSpec) SubsetTasks(indices []int) ([]GridCell, []sweep.Task, error) {
	cells := g.Cells()
	if len(indices) > 0 {
		if err := CheckSubset(len(cells), indices); err != nil {
			return nil, nil, err
		}
		sub := make([]GridCell, len(indices))
		for i, idx := range indices {
			sub[i] = cells[idx]
		}
		cells = sub
	}
	tasks := make([]sweep.Task, 0, len(cells))
	for _, cell := range cells {
		task, err := g.taskFor(cell)
		if err != nil {
			return nil, nil, err
		}
		tasks = append(tasks, task)
	}
	return cells, tasks, nil
}

// CheckSubset validates a cell-index subset against a grid of n cells:
// indices must be strictly increasing (sorted, no duplicates) and every
// index must fall in [0, n).
func CheckSubset(n int, indices []int) error {
	for i, idx := range indices {
		if idx < 0 || idx >= n {
			return fmt.Errorf("experiments: cell index %d outside grid of %d cells", idx, n)
		}
		if i > 0 && idx <= indices[i-1] {
			return fmt.Errorf("experiments: cell indices not strictly increasing at %d (after %d)", idx, indices[i-1])
		}
	}
	return nil
}

// cell is the workload cell grid cell c runs: a steady-state run of its
// workload under its policy, with the clustering engine attached under
// the clustered policy, on the grid's Options with c's topology and seed.
func (g GridSpec) cell(c GridCell) (cell[RunMetrics], error) {
	topo, err := ParseTopo(c.Topo)
	opt := g.Opt
	opt.Topo, opt.Seed = topo, c.Seed
	return workloadCell(c.Workload, c.Policy, opt), err
}

// taskFor compiles one grid cell into its sweep task, which executes the
// cell's workload cell once.
func (g GridSpec) taskFor(c GridCell) (sweep.Task, error) {
	wc, err := g.cell(c)
	if err != nil {
		return sweep.Task{}, err
	}
	if err := CheckWorkload(c.Workload); err != nil {
		return sweep.Task{}, err
	}
	return sweep.Task{
		Name: c.Name(),
		Seed: c.Seed,
		Run: func(ctx context.Context, seed int64) (metrics.Snapshot, error) {
			wc := wc
			wc.opt.Seed = seed
			r, err := wc.execute(ctx)
			return r.Metrics, err
		},
	}, nil
}

// RunGrid executes the grid on the sweep pool and returns per-cell
// results (in cell order) plus the merged machine-wide snapshot. The
// per-cell results are byte-identical for any worker count: every cell's
// seed is fixed by the grid, not by scheduling.
func RunGrid(ctx context.Context, g GridSpec, workers int) ([]GridCell, []sweep.Result, metrics.Snapshot, error) {
	cells, tasks, err := g.Tasks()
	if err != nil {
		return nil, nil, metrics.Snapshot{}, err
	}
	results, err := sweep.Run(ctx, tasks, workers)
	if err != nil {
		return nil, nil, metrics.Snapshot{}, err
	}
	return cells, results, sweep.Merged(results), nil
}

// stallName is the label value of one remote stall series.
func stallName(ev pmu.Event) string { return ev.String() }

// GridTable renders one row per cell: the headline numbers a sweep is
// usually after, all pulled from the structured snapshots.
func GridTable(cells []GridCell, results []sweep.Result) *stats.Table {
	t := stats.NewTable("Sweep: policy x topology x workload",
		"Config", "Seed", "Cycles(M)", "CPI", "Remote%", "Ops/Mcycle", "Migrations", "Activations")
	for i, r := range results {
		cell := cells[i]
		if r.Err != nil {
			t.AddRow(cell.Name(), fmt.Sprint(cell.Seed), "error: "+r.Err.Error(), "", "", "", "", "")
			continue
		}
		s := r.Metrics
		cycles := s.Counter(sim.MetricPMUCycles, nil)
		insts := s.Counter(sim.MetricPMUInsts, nil)
		remote := s.Counter(sim.MetricPMUStalls, metrics.Labels{"event": stallName(pmu.EvStallRemoteL2)}) +
			s.Counter(sim.MetricPMUStalls, metrics.Labels{"event": stallName(pmu.EvStallRemoteL3)})
		ops := s.Counter(sim.MetricOps, nil)
		cpi, remPct, opsPerM := 0.0, 0.0, 0.0
		if insts > 0 {
			cpi = float64(cycles) / float64(insts)
		}
		if cycles > 0 {
			remPct = 100 * float64(remote) / float64(cycles)
			opsPerM = float64(ops) / (float64(cycles) / 1e6)
		}
		t.AddRow(cell.Name(), fmt.Sprint(cell.Seed),
			fmt.Sprintf("%.1f", float64(cycles)/1e6),
			fmt.Sprintf("%.3f", cpi),
			fmt.Sprintf("%.2f", remPct),
			fmt.Sprintf("%.1f", opsPerM),
			fmt.Sprint(s.Counter(sim.MetricSchedMigrations, nil)),
			fmt.Sprint(s.Counter(core.MetricActivations, nil)))
	}
	return t
}

// SplitList parses a comma-separated flag value, dropping empties.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
