package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"threadcluster/internal/cache"
	"threadcluster/internal/core"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/topology"
)

// slabsOf returns the slab identity of every cache of the machine that
// has built its slabs; slabs are pooled as a set, so meeting one again
// means a cache was built on recycled slabs.
func slabsOf(m *sim.Machine) map[unsafe.Pointer]bool {
	h, topo := m.Hierarchy(), m.Topology()
	s := map[unsafe.Pointer]bool{}
	add := func(c *cache.SetAssoc) {
		if b := c.Backing(); b != nil {
			s[b] = true
		}
	}
	for core := 0; core < topo.NumCores(); core++ {
		add(h.L1(core))
	}
	for chip := 0; chip < topo.Chips; chip++ {
		add(h.L2(chip))
		add(h.L3(chip))
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

// TestBuildFailureRecyclesSlabs drives every way a cell's machine can
// fail once it exists — in its measured interval, and before its first
// reference in install, core.New, Engine.Install or setup — and requires
// the executor to have closed the machine. One that fails in its interval
// parks what its warm-up built; one that fails in build has built
// nothing, and hands back the slabs it took from the pool when it was
// made. Either way the next machine of that geometry holds them.
// A daemon fed bad specs must not fall back to allocating per job.
func TestBuildFailureRecyclesSlabs(t *testing.T) {
	// Start from empty pools: a Get takes its own P's slab sets first and
	// then the oldest of other Ps', so sets parked by an earlier test
	// would be handed out before the ones this test releases.
	runtime.GC()
	runtime.GC()
	ctx := context.Background()
	opt := goldenOptions()
	boom := errors.New("boom")
	nop := sim.StateProvider{
		Save:    func(*snapbin.Enc) error { return nil },
		Restore: func(*snapbin.Dec) error { return nil },
	}
	var failed *sim.Machine
	var released map[unsafe.Pointer]bool
	machineBuilt = func(m *sim.Machine) { failed, released = m, slabsOf(m) }
	defer func() { machineBuilt = nil }()
	good := study{policy: sched.PolicyClustered, workload: named(Microbenchmark)}
	// One failed machine's slab sets can all be out of the next one's
	// reach: sync.Pool drops one Put in four under the race detector, and
	// a Get cannot see another P's private item. So the claim is made
	// over several failed machines: each fail runs a failing cell, and the
	// sets one of them released must turn up in the machine that follows
	// it. A failed build that held nothing (the pool had dropped every
	// parked set before it was made) has nothing to hand back.
	const attempts = 8
	requireReuse := func(t *testing.T, fail func(t *testing.T)) {
		t.Helper()
		held := 0
		for i := 0; i < attempts; i++ {
			released = nil
			fail(t)
			if !closed(failed) {
				t.Fatal("the cell failed and left its machine open")
			}
			if len(released) == 0 {
				continue
			}
			held++
			sets := released
			reused, err := runCell(ctx, cell[bool]{"next", opt, good, func(ctx context.Context, r *rig) (bool, error) {
				if err := r.m.RunRoundsCtx(ctx, 2); err != nil {
					return false, err
				}
				for b := range slabsOf(r.m) {
					if sets[b] {
						return true, nil
					}
				}
				return false, nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			if reused {
				return
			}
		}
		if held > 0 {
			t.Fatalf("in %d attempts, none of the %d failed machines that held slab sets had one turn up in the next machine", attempts, held)
		}
	}
	t.Run("interval", func(t *testing.T) {
		requireReuse(t, func(t *testing.T) {
			_, err := runCell(ctx, cell[RunMetrics]{"interval", opt, good, func(ctx context.Context, r *rig) (RunMetrics, error) {
				return r.measure(ctx, 2, func() error {
					released = slabsOf(r.m)
					return boom
				})
			}})
			if !errors.Is(err, boom) {
				t.Fatalf("a cell with a failing interval: %v", err)
			}
			if len(released) == 0 {
				t.Fatal("two warm-up rounds built no cache")
			}
		})
	})
	for name, st := range map[string]study{
		"install": {install: func(*rig) error { return boom }},
		"core.New": {workload: named(Microbenchmark),
			engine: func(int64) core.Config { return core.Config{PMUSlot: -1} }},
		"Engine.Install": {
			install: func(r *rig) error { return r.m.RegisterStateProvider(core.StateProviderName, nop) },
			engine:  controlledEngine(nil)},
		"setup": {workload: named(Microbenchmark), setup: func(*rig) error { return boom }},
	} {
		t.Run(name, func(t *testing.T) {
			st.policy = sched.PolicyClustered
			requireReuse(t, func(t *testing.T) {
				_, err := runCell(ctx, cell[bool]{name, opt, st, func(context.Context, *rig) (bool, error) {
					t.Fatal("the cell ran on a machine that failed to build")
					return false, nil
				}})
				if err == nil {
					t.Fatal("build succeeded")
				}
			})
		})
	}
}

// TestGridCellsCloseTheirMachine: the sweep-grid path — what tcsim sweep,
// tcsimd and tcfleet all run — recycles with no caller involved. Every
// machine a cell's task built is closed by the time the task returns.
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

// TestShortJobAllocBudget: a 32-way cell at 1/1/1 rounds — the shape of a
// service-floor job — allocates what its three rounds touch, not the
// 42 MB of cache slabs the machine could come to own. The budget holds
// with an empty slab pool; parked slabs only lower the figure.
func TestShortJobAllocBudget(t *testing.T) {
	opt := DefaultOptions().WithRounds(1, 1, 1)
	opt.Topo = topology.Power5_32Way()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunWorkload(context.Background(), Volano, sched.PolicyClustered, true, opt); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("a 32-way 1/1/1 cell allocated %.1f MB, budget %d MB", float64(got)/(1<<20), budget>>20)
	}
}
