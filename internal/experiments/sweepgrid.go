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

// CellKey is everything a grid cell's metrics are a pure function of:
// the digest epoch, the cell's own coordinates and seed, and the rest of
// its grid.
type CellKey struct {
	Epoch    int      `json:"epoch"`
	Workload string   `json:"workload"`
	Policy   string   `json:"policy"`
	Topo     string   `json:"topo"`
	Seed     int64    `json:"seed"`
	Grid     GridSpec `json:"grid"`
}

// CellKey keys cell c of g. The grid's lists and base seed only say
// which cells exist and where their seeds come from, and the cell names
// its own topology and seed, so those fields are cleared; whole structs
// are cleared rather than fields listed, so a field added to GridSpec or
// Options joins the key by itself. A record keyed by it therefore serves
// any grid that holds the cell with the same seed.
func (g GridSpec) CellKey(c GridCell) CellKey {
	g.Workloads, g.Policies, g.Topos, g.BaseSeed = nil, nil, nil, 0
	g.Opt.Topo, g.Opt.Seed = topology.Topology{}, 0
	return CellKey{Epoch: DigestEpoch, Workload: c.Workload, Policy: c.Policy.String(), Topo: c.Topo, Seed: c.Seed, Grid: g}
}

// Hash is the key's name: the hex sha256 of its canonical JSON.
func (k CellKey) Hash() string {
	data, _ := json.Marshal(k) // strings and integers always marshal
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
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

// taskFor compiles one grid cell into its sweep task.
func (g GridSpec) taskFor(cell GridCell) (sweep.Task, error) {
	topo, err := ParseTopo(cell.Topo)
	if err != nil {
		return sweep.Task{}, err
	}
	if err := CheckWorkload(cell.Workload); err != nil {
		return sweep.Task{}, err
	}
	return sweep.Task{
		Name: cell.Name(),
		Seed: cell.Seed,
		Run: func(ctx context.Context, seed int64) (metrics.Snapshot, error) {
			opt := g.Opt
			opt.Topo = topo
			opt.Seed = seed
			r, err := RunWorkload(ctx, cell.Workload, cell.Policy, cell.Policy == sched.PolicyClustered, opt)
			if err != nil {
				return metrics.Snapshot{}, err
			}
			return r.Metrics, nil
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
