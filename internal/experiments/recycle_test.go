package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"threadcluster/internal/cache"
	"threadcluster/internal/core"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/snapbin"
)

// slabsOf returns the machine's caches by identity; a cache is pooled
// whole, so meeting one again means a machine was built on recycled
// slabs.
func slabsOf(m *sim.Machine) map[*cache.SetAssoc]bool {
	h, topo := m.Hierarchy(), m.Topology()
	s := map[*cache.SetAssoc]bool{}
	for core := 0; core < topo.NumCores(); core++ {
		s[h.L1(core)] = true
	}
	for chip := 0; chip < topo.Chips; chip++ {
		s[h.L2(chip)] = true
		s[h.L3(chip)] = true
	}
	return s
}

// closed reports whether the machine has been closed, by asking for its
// hierarchy.
func closed(m *sim.Machine) (yes bool) {
	defer func() { yes = recover() != nil }()
	m.Hierarchy()
	return false
}

// TestBuildFailureRecyclesSlabs drives every way study.build can fail
// after the machine exists — install, core.New, Engine.Install, setup —
// and requires the machine to have been closed: the next machine of that
// geometry is built on its slabs.
// A daemon fed bad specs must not fall back to allocating per job.
func TestBuildFailureRecyclesSlabs(t *testing.T) {
	opt := goldenOptions()
	spec, err := BuildWorkload(Microbenchmark, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	nop := sim.StateProvider{
		Save:    func(*snapbin.Enc) error { return nil },
		Restore: func(*snapbin.Dec) error { return nil },
	}
	for name, st := range map[string]study{
		"install": {install: func(*sim.Machine) error { return boom }},
		"core.New": {install: spec.Install,
			engine: func(int64) core.Config { return core.Config{PMUSlot: -1} }},
		"Engine.Install": {
			install: func(m *sim.Machine) error { return m.RegisterStateProvider(core.StateProviderName, nop) },
			engine:  controlledEngine(nil)},
		"setup": {install: spec.Install, setup: func(*rig) error { return boom }},
	} {
		t.Run(name, func(t *testing.T) {
			var failed *sim.Machine
			var released map[*cache.SetAssoc]bool
			machineBuilt = func(m *sim.Machine) { failed, released = m, slabsOf(m) }
			defer func() { machineBuilt = nil }()
			st.policy = sched.PolicyClustered
			if _, err := st.build(opt); err == nil {
				t.Fatal("build succeeded")
			}
			if !closed(failed) {
				t.Fatal("build failed and left its machine open")
			}
			next, err := sim.NewMachine(MachineConfig(opt, st.policy))
			if err != nil {
				t.Fatal(err)
			}
			defer next.Close()
			// sync.Pool may drop an item (at random under the race
			// detector): any one cache turning up again is reuse.
			for c := range slabsOf(next) {
				if released[c] {
					return
				}
			}
			t.Fatalf("the next machine reused none of the %d released caches", len(released))
		})
	}
}

// TestGridCellsCloseTheirMachine: the sweep-grid path — what tcsim sweep,
// tcsimd and tcfleet all run — recycles with no caller involved. Every
// machine a cell's task built is closed by the time the task returns,
// and taskFor has no way to build one except RunWorkload, which closes
// it.
func TestGridCellsCloseTheirMachine(t *testing.T) {
	g := subsetGrid()
	_, tasks, err := g.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	var built []*sim.Machine
	machineBuilt = func(m *sim.Machine) { built = append(built, m) }
	defer func() { machineBuilt = nil }()
	for _, task := range tasks {
		if _, err := task.Run(context.Background(), task.Seed); err != nil {
			t.Fatal(err)
		}
	}
	if len(built) != len(tasks) {
		t.Fatalf("%d tasks built %d machines through the rig", len(tasks), len(built))
	}
	for i, m := range built {
		if !closed(m) {
			t.Errorf("task %s returned with its machine open", tasks[i].Name)
		}
	}

	file, err := parser.ParseFile(token.NewFileSet(), "sweepgrid.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "taskFor" {
			continue
		}
		runs := false
		ast.Inspect(fn, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				runs = runs || x.Name == "RunWorkload"
				if x.Name == "study" {
					t.Error("taskFor describes a study itself; go through RunWorkload, which closes the machine")
				}
			case *ast.SelectorExpr:
				if x.Sel.Name == "build" || x.Sel.Name == "run" || x.Sel.Name == "runInterval" {
					t.Errorf("taskFor calls .%s; go through RunWorkload, which closes the machine", x.Sel.Name)
				}
			}
			return true
		})
		if !runs {
			t.Error("taskFor no longer calls RunWorkload")
		}
		return
	}
	t.Fatal("sweepgrid.go has no taskFor")
}

// TestGridRecyclesAcrossWorkers: sweep workers building, running and
// closing machines of two geometries (the 2-chip OpenPower 720 and the
// 8-chip 32-way Power5) at once hand slabs to each other through the
// pool, and every cell still equals the serial run's. Run under -race
// -cpu 1,2,4.
func TestGridRecyclesAcrossWorkers(t *testing.T) {
	g := subsetGrid()
	g.Topos = []string{TopoOpenPower720, TopoPower5_32}
	g.Policies = []sched.Policy{sched.PolicyDefault, sched.PolicyRoundRobin, sched.PolicyClustered}
	g.Opt.WarmRounds, g.Opt.EngineRounds, g.Opt.MeasureRounds = 1, 2, 1
	ctx := context.Background()
	cells, serial, _, err := RunGrid(ctx, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, pooled, _, err := RunGrid(ctx, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if serial[i].Err != nil || pooled[i].Err != nil {
			t.Fatalf("%s: serial err %v, concurrent err %v", cells[i].Name(), serial[i].Err, pooled[i].Err)
		}
		want, err := json.Marshal(serial[i].Metrics)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(pooled[i].Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: snapshot differs between the serial and the 3-worker run", cells[i].Name())
		}
	}
}
