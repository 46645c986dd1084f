package experiments

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"threadcluster/internal/sched"
	"threadcluster/internal/sweep"
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

// TestCellKeyCoversGrid walks every field of GridSpec and its Options by
// reflection. Perturbing one must change a cell's key, unless the field
// only says which cells exist or where their seeds come from (the three
// lists, BaseSeed) or the cell names it itself (Opt.Topo, Opt.Seed).
// Appending a workload or a policy keeps the key of every old cell,
// whose seed a one-topology grid keeps.
func TestCellKeyCoversGrid(t *testing.T) {
	base := subsetGrid()
	cell := base.Cells()[0]
	want := base.CellKey(cell).Hash()
	cleared := map[string]bool{
		"Workloads": true, "Policies": true, "Topos": true, "BaseSeed": true,
		"Opt.Topo": true, "Opt.Seed": true,
	}
	seen := map[string]bool{}
	var walk func(path string, index []int, typ reflect.Type, free bool)
	walk = func(path string, index []int, typ reflect.Type, free bool) {
		if typ.Kind() == reflect.Struct {
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				name := strings.TrimPrefix(path+"."+f.Name, ".")
				walk(name, append(append([]int(nil), index...), i), f.Type, free || cleared[name])
			}
			return
		}
		seen[path] = true
		g := subsetGrid()
		v := reflect.ValueOf(&g).Elem().FieldByIndex(index)
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
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("%s: no perturbation for a %s field; teach this test one", path, v.Kind())
		}
		if changed := g.CellKey(cell).Hash() != want; changed == free {
			t.Errorf("perturbing %s: key changed = %v, want %v", path, changed, !free)
		}
	}
	walk("", nil, reflect.TypeOf(base), false)
	for _, path := range []string{"Opt.QuantumCycles", "Opt.Coherence", "Opt.Topo.Chips", "BaseSeed"} {
		if !seen[path] {
			t.Errorf("the walk never reached %s", path)
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
