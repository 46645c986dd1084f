package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/sweep"
	"threadcluster/internal/topology"
)

func subsetGrid() GridSpec {
	opt := DefaultOptions()
	opt.WarmRounds, opt.EngineRounds, opt.MeasureRounds = 2, 6, 4
	return GridSpec{
		Workloads: []string{"microbenchmark", "volano"},
		Policies:  []sched.Policy{sched.PolicyDefault, sched.PolicyClustered},
		Topos:     []string{TopoOpenPower720},
		BaseSeed:  17,
		Opt:       opt,
	}
}

func TestCheckSubset(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		indices []int
		ok      bool
	}{
		{"empty", 4, nil, true},
		{"full", 4, []int{0, 1, 2, 3}, true},
		{"sparse", 4, []int{1, 3}, true},
		{"negative", 4, []int{-1}, false},
		{"beyond", 4, []int{4}, false},
		{"duplicate", 4, []int{2, 2}, false},
		{"descending", 4, []int{3, 1}, false},
	} {
		err := CheckSubset(tc.n, tc.indices)
		if (err == nil) != tc.ok {
			t.Errorf("%s: CheckSubset(%d, %v) = %v, want ok=%v", tc.name, tc.n, tc.indices, err, tc.ok)
		}
	}
}

// TestSubsetTasksPreserveFullGridIdentity: a subset's cells and tasks
// carry the names and seeds the full grid assigns at those positions —
// the property that lets a fleet shard a grid without changing any
// cell's workload stream.
func TestSubsetTasksPreserveFullGridIdentity(t *testing.T) {
	g := subsetGrid()
	fullCells, fullTasks, err := g.Tasks()
	if err != nil {
		t.Fatalf("Tasks: %v", err)
	}
	indices := []int{1, 2}
	cells, tasks, err := g.SubsetTasks(indices)
	if err != nil {
		t.Fatalf("SubsetTasks: %v", err)
	}
	if len(cells) != len(indices) || len(tasks) != len(indices) {
		t.Fatalf("subset sizes %d/%d, want %d", len(cells), len(tasks), len(indices))
	}
	for i, idx := range indices {
		if cells[i] != fullCells[idx] {
			t.Errorf("subset cell %d = %+v, full grid position %d = %+v", i, cells[i], idx, fullCells[idx])
		}
		if tasks[i].Name != fullTasks[idx].Name || tasks[i].Seed != fullTasks[idx].Seed {
			t.Errorf("subset task %d = (%s, %d), want (%s, %d)",
				i, tasks[i].Name, tasks[i].Seed, fullTasks[idx].Name, fullTasks[idx].Seed)
		}
	}
	if _, _, err := g.SubsetTasks([]int{len(fullCells)}); err == nil {
		t.Fatalf("out-of-range subset accepted")
	}
}

// TestSubsetRunMatchesFullGridCells: actually executing a subset
// produces the same per-cell snapshots the full grid run produces at
// those positions.
func TestSubsetRunMatchesFullGridCells(t *testing.T) {
	g := subsetGrid()
	_, fullResults, _, err := RunGrid(context.Background(), g, 2)
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	indices := []int{0, 3}
	_, tasks, err := g.SubsetTasks(indices)
	if err != nil {
		t.Fatalf("SubsetTasks: %v", err)
	}
	sub, err := sweep.Run(context.Background(), tasks, 1)
	if err != nil {
		t.Fatalf("sweep.Run: %v", err)
	}
	for k, idx := range indices {
		got, want := sub[k], fullResults[idx]
		if got.Name != want.Name || got.Seed != want.Seed {
			t.Fatalf("cell %d identity (%s, %d), want (%s, %d)", idx, got.Name, got.Seed, want.Name, want.Seed)
		}
		gj, err := json.Marshal(got.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if string(gj) != string(wj) {
			t.Errorf("cell %d snapshot differs between subset and full-grid run", idx)
		}
	}
}

// TestParsePolicy: a policy has exactly one spelling, its String() — a
// second one would be a second cell name and hence a second digest —
// so the short aliases cmd/stallbreak used to accept are unknown.
func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]sched.Policy{
		"default":        sched.PolicyDefault,
		"round-robin":    sched.PolicyRoundRobin,
		"hand-optimized": sched.PolicyHandOptimized,
		"clustered":      sched.PolicyClustered,
	} {
		if got, err := ParsePolicy(name); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"rr", "hand", "bogus", ""} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("ParsePolicy(%q) should be unknown", name)
		}
	}
}

// TestCellKeyCoversGrid walks every field of Options by reflection:
// perturbing one in a cell's Options must change the cell's key, so no
// field a result may depend on is left out of it (an unexported field or
// a `json:"-"` tag would be). A grid cell's key is the key of the
// workload cell it runs, so the Figure 6/7 cells planned with a grid
// cell's seed and Options hold its key. Appending a workload or a policy
// keeps the key of every old cell, whose seed a one-topology grid keeps.
func TestCellKeyCoversGrid(t *testing.T) {
	base := subsetGrid()
	wc := workloadCell(Volano, sched.PolicyClustered, base.Opt)
	want := wc.key().Hash()
	seen := map[string]bool{}
	var walk func(path string, index []int, typ reflect.Type)
	walk = func(path string, index []int, typ reflect.Type) {
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(strings.TrimPrefix(path+"."+f.Name, "."), append(append([]int(nil), index...), i), f.Type)
			}
			return
		}
		seen[path] = true
		c := wc
		v := reflect.ValueOf(&c.opt).Elem().FieldByIndex(index)
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: no perturbation for a %s field; teach this test one", path, v.Kind())
		}
		if c.key().Hash() == want {
			t.Errorf("perturbing Options.%s left the cell's key unchanged", path)
		}
	}
	walk("", nil, reflect.TypeOf(base.Opt))
	for _, path := range []string{"QuantumCycles", "Coherence", "Topo.Chips", "Seed"} {
		if !seen[path] {
			t.Errorf("the walk never reached Options.%s", path)
		}
	}

	m := &memo{planning: true, done: map[CellKey]any{}}
	ctx := context.WithValue(context.Background(), memoKey{}, m)
	for _, c := range base.Cells() {
		opt := base.Opt
		opt.Topo, opt.Seed = topology.OpenPower720(), c.Seed
		if _, err := Comparison(ctx, []string{c.Workload}, opt); !errors.Is(err, errPlanned) {
			t.Fatalf("planning Figure 6 for %s: %v", c.Name(), err)
		}
	}
	planned := map[CellKey]bool{}
	for _, c := range m.planned {
		planned[c.key()] = true
	}
	for _, c := range base.Cells() {
		if !planned[base.CellKey(c)] {
			t.Errorf("%s: no Figure 6 cell with its seed and Options has its key", c.Name())
		}
	}

	for _, grow := range []func(*GridSpec){
		func(g *GridSpec) { g.Workloads = append(g.Workloads, Rubis) },
		func(g *GridSpec) { g.Policies = append(g.Policies, sched.PolicyRoundRobin) },
	} {
		g := subsetGrid()
		grow(&g)
		byName := map[string]GridCell{}
		for _, c := range g.Cells() {
			byName[c.Name()] = c
		}
		for _, old := range base.Cells() {
			c, ok := byName[old.Name()]
			if !ok || c.Seed != old.Seed {
				t.Fatalf("grown grid lost cell %s or moved its seed", old.Name())
			}
			if g.CellKey(c).Hash() != base.CellKey(old).Hash() {
				t.Errorf("growing the grid moved the key of %s", old.Name())
			}
		}
	}
}

// TestGridTaskRunsItsKeyedCell: the task of every grid cell builds one
// machine, for the cell GridSpec.CellKey names, so a record keyed by it
// holds what the task computes. The grid's own Opt.Topo and Opt.Seed are
// set to what no cell runs: each cell's topology and seed replace them.
func TestGridTaskRunsItsKeyedCell(t *testing.T) {
	g := subsetGrid()
	g.Opt.Topo, g.Opt.Seed = topology.Power5_32Way(), 99
	cells, tasks, err := g.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	var ran []CellKey
	machineBuilt = func(k CellKey, _ *sim.Machine) { ran = append(ran, k) }
	defer func() { machineBuilt = nil }()
	for i, task := range tasks {
		ran = nil
		if _, err := task.Run(context.Background(), task.Seed); err != nil {
			t.Fatal(err)
		}
		want := g.CellKey(cells[i])
		if len(ran) != 1 || ran[0] != want {
			t.Errorf("%s: the task ran %+v, CellKey is %+v", cells[i].Name(), ran, want)
		}
		if want.Opt.Topo != topology.OpenPower720() || want.Opt.Seed != cells[i].Seed {
			t.Errorf("%s: key runs topology %+v seed %d, want the cell's", cells[i].Name(), want.Opt.Topo, want.Opt.Seed)
		}
	}
}
