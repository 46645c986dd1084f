package sim_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"threadcluster/internal/cache"
	"threadcluster/internal/core"
	"threadcluster/internal/memory"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// TestSnapshotCoverage is the structural half of the snapshot contract.
// The digest tests cannot see a field dropped from both a SaveState and
// its RestoreState: the encoding stays self-consistent. Here each machine
// of a small corpus is snapshotted mid-run and restored into a fresh
// build, and everything reachable from the live and the restored
// *sim.Machine and *core.Engine is walked field by field. Every field
// must be equal (notState and walk's two layout views name the few that
// need not be), and every field of a state provider — a type with a
// SaveState, SnapshotState or State method — must be non-zero somewhere
// in the corpus unless zeroEverywhere says why, so no comparison is
// vacuous.
func TestSnapshotCoverage(t *testing.T) {
	ctx := context.Background()
	w := walker{nonzero: map[string]bool{}, providers: map[reflect.Type]bool{}}
	for _, c := range snapshotCorpus() {
		live, liveEngine := c.build(t)
		for r := 0; c.ready == nil && r < c.rounds || c.ready != nil && !c.ready(liveEngine); r++ {
			if r == c.rounds {
				t.Fatalf("%s: not ready to snapshot after %d rounds", c.name, r)
			}
			if err := live.RunRoundsCtx(ctx, 1); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := live.Snapshot(ctx)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if snap, err = sim.DecodeSnapshot(snap.Encode()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		restored, restoredEngine := c.build(t)
		if err := restored.RestoreSnapshot(snap); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}

		w.seen, w.diffs = map[visit]bool{}, nil
		w.walk("machine", reflect.ValueOf(live), reflect.ValueOf(restored))
		w.walk("engine", reflect.ValueOf(liveEngine), reflect.ValueOf(restoredEngine))
		for _, d := range w.diffs {
			t.Errorf("%s: restored %s", c.name, d)
		}
	}
	w.verify(t)
}

// zeroEverywhere names the state-provider fields no machine can make
// non-zero at a snapshot, with the reason. An entry the corpus does make
// non-zero, or that names no field reached, fails the test.
var zeroEverywhere = map[string]string{
	"pmu.PMU.pending":         "always empty at a snapshot: SaveState flushes it first",
	"pmu.PMU.interruptCycles": "runSlice drains it after every reference, so it is zero between rounds",
	"sched.Scheduler.running": "empty between rounds: SaveState refuses a scheduler with a thread dispatched",
}

// notState names fields that are deliberately not simulation state. They
// are neither compared nor held to coverage.
var notState = map[string]string{
	"sim.Machine.parallelRounds":    "counts which engine drove the rounds; metrics and snapshots must not depend on it",
	"workloads.syntheticWorker.run": runSlot,
	"workloads.volanoThread.run":    runSlot,
	"workloads.stagedWorker.run":    runSlot,
}

const runSlot = "NextRun's one-reference slot: every NextRun rewrites it and the slice loop consumes it at once (Snapshot refuses a pending run)"

// corpusMachine is one machine of the corpus. It runs rounds rounds, or,
// when ready is set, until ready holds and for at most rounds rounds.
type corpusMachine struct {
	name    string
	cfg     sim.Config
	install func(*sim.Machine) error
	engine  func(*core.Config) // tunes a clustering engine; nil installs none
	rounds  int
	ready   func(*core.Engine) bool
}

func (c corpusMachine) build(t *testing.T) (*sim.Machine, *core.Engine) {
	t.Helper()
	m, err := sim.NewMachine(c.cfg)
	if err == nil {
		err = c.install(m)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.engine == nil {
		return m, nil
	}
	// Tuned to detect within tens of rounds on SmallConfig caches.
	cfg := core.DefaultConfig()
	cfg.MonitorWindow = 200_000
	cfg.ActivationFraction = 0.01
	cfg.TargetSamples = 5_000
	cfg.SamplingInterval = 5
	cfg.SettleCycles = 100_000
	c.engine(&cfg)
	e, err := core.New(m, cfg)
	if err == nil {
		err = e.Install()
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return m, e
}

// snapshotCorpus lists machines that between them reach every state
// provider and make every provider field non-zero.
func snapshotCorpus() []corpusMachine {
	base := func(topo topology.Topology, policy sched.Policy) sim.Config {
		cfg := sim.DefaultConfig()
		cfg.Topo = topo
		cfg.Policy = policy
		cfg.Caches = cache.SmallConfig()
		cfg.QuantumCycles = 20_000
		return cfg
	}
	// The scoreboard microbenchmark; the SmallConfig variant keeps the
	// scoreboards cached and changes its sharing 40 000 references in.
	synthetic := workloads.DefaultSyntheticConfig()
	synthetic.PrivateBytes = 64 << 10
	small := synthetic
	small.PrivateBytes = 8 << 10
	phaseChange := func(a *memory.Arena, c workloads.SyntheticConfig) (*workloads.Spec, error) {
		return workloads.NewSyntheticWithPhaseChange(a, c, 40_000)
	}
	paperCaches := base(topology.OpenPower720(), sched.PolicyClustered)
	paperCaches.Caches = cache.Power5Config()
	staged := install(workloads.NewStaged, workloads.DefaultStagedConfig())
	volano := func(clientsPerRoom int) func(*sim.Machine) error {
		cfg := workloads.DefaultVolanoConfig()
		cfg.ClientsPerRoom = clientsPerRoom
		return install(workloads.NewVolano, cfg)
	}
	numa := base(topology.OpenPower720(), sched.PolicyClustered)
	numa.Lat = topology.NUMALatencies()
	broadcast := base(topology.OpenPower720(), sched.PolicyDefault)
	broadcast.Caches.Coherence = cache.CoherenceBroadcast
	smt := base(topology.OpenPower720(), sched.PolicyRoundRobin)
	smt.SMTContentionPct = 30
	return []corpusMachine{{
		// Two finished detections, so the previous clustering and the
		// stability between them are state, and a third mid-flight.
		name:    "open720 clustered",
		cfg:     base(topology.OpenPower720(), sched.PolicyClustered),
		install: install(phaseChange, small),
		engine:  func(*core.Config) {},
		rounds:  600,
		ready: func(e *core.Engine) bool {
			return e.Clusterings() >= 2 && e.Phase() == core.PhaseDetecting && e.SamplesRead() > 200
		},
	}, {
		name:    "open720 migrated",
		cfg:     paperCaches,
		install: install(workloads.NewSynthetic, synthetic),
		engine:  func(c *core.Config) { c.TargetSamples = 30_000 },
		rounds:  1_500,
		ready:   func(e *core.Engine) bool { return e.MigrationsDone() > 0 },
	}, {
		// After a detection, so the window bases, remote-memory stalls
		// included, are taken mid-run.
		name: "open720 numa",
		cfg:  numa,
		install: func(m *sim.Machine) error {
			m.Hierarchy().SetNUMA(memory.InterleavedNodes{N: 2})
			return staged(m)
		},
		engine: func(c *core.Config) {
			c.NUMA = true
			c.NodeOf = memory.InterleavedNodes{N: 2}.NodeOf
			c.TargetSamples = 2_000
		},
		rounds: 200,
		ready:  func(e *core.Engine) bool { return e.Clusterings() > 0 },
	}, {
		name:    "open720 broadcast",
		cfg:     broadcast,
		install: volano(8),
		rounds:  30,
	}, {
		name: "open720 round-robin smt multiplexed",
		cfg:  smt,
		install: func(m *sim.Machine) error {
			groups := [][]pmu.Event{{pmu.EvCycles, pmu.EvL1DMiss}, {pmu.EvStallRemoteL2, pmu.EvStallSMT}}
			for c := 0; c < m.Topology().NumCPUs(); c++ {
				mux, err := pmu.NewMultiplexer(groups, 7_000)
				if err != nil {
					return err
				}
				m.AttachMux(topology.CPUID(c), mux)
			}
			return staged(m)
		},
		rounds: 25,
	}, {
		// Sixteen threads on 32 CPUs: the idle CPUs steal.
		name:    "32-way deferred volano",
		cfg:     base(topology.Power5_32Way(), sched.PolicyDefault),
		install: volano(4),
		rounds:  20,
	}}
}

// install builds a workload from its configuration on a fresh arena and
// adds its threads to the machine.
func install[C any](build func(*memory.Arena, C) (*workloads.Spec, error), cfg C) func(*sim.Machine) error {
	return func(m *sim.Machine) error {
		spec, err := build(memory.NewDefaultArena(), cfg)
		if err != nil {
			return err
		}
		return spec.Install(m)
	}
}

// isProvider reports whether t is a struct whose pointer has a
// SaveState, SnapshotState or State method.
func isProvider(t reflect.Type) bool {
	_, save := reflect.PointerTo(t).MethodByName("SaveState")
	_, snapshot := reflect.PointerTo(t).MethodByName("SnapshotState")
	_, state := reflect.PointerTo(t).MethodByName("State")
	return t.Kind() == reflect.Struct && (save || snapshot || state)
}

// verify checks the coverage the corpus reached.
func (w *walker) verify(t *testing.T) {
	t.Helper()
	var reached, fields []string
	for p := range w.providers {
		reached = append(reached, p.String())
		for i := 0; i < p.NumField(); i++ {
			name := p.String() + "." + p.Field(i).Name
			if _, skip := notState[name]; !skip && p.Field(i).Type.Kind() != reflect.Func {
				fields = append(fields, name)
			}
		}
	}
	sort.Strings(fields)
	for _, name := range fields {
		if _, exempt := zeroEverywhere[name]; w.nonzero[name] == exempt {
			t.Errorf("%s: non-zero in the corpus %v, exempt in zeroEverywhere %v; exactly one must hold", name, w.nonzero[name], exempt)
		}
	}
	for name := range zeroEverywhere {
		if !slices.Contains(fields, name) {
			t.Errorf("zeroEverywhere names %s, no field of a provider the corpus reaches", name)
		}
	}
	sort.Strings(reached)
	want := []string{
		"cache.Hierarchy", "clustering.Filter", "clustering.ShMap", "core.Engine",
		"pmu.Multiplexer", "pmu.PMU", "rng.Rand", "sched.Scheduler",
		"workloads.stagedWorker", "workloads.syntheticWorker", "workloads.volanoThread",
	}
	if !slices.Equal(reached, want) {
		t.Errorf("the corpus reaches state providers %v, want %v", reached, want)
	}
}

// visit is a pair of pointers already compared, with their type (a
// struct and its first field share an address).
type visit struct {
	a, b uintptr
	t    reflect.Type
}

// walker compares two object graphs in lockstep, and accumulates across
// the corpus the state providers reached and which of their fields were
// non-zero on either side of a restore.
type walker struct {
	seen      map[visit]bool
	diffs     []string
	providers map[reflect.Type]bool
	nonzero   map[string]bool
}

func (w *walker) diff(path string, format string, args ...any) {
	if len(w.diffs) < 20 {
		w.diffs = append(w.diffs, path+": "+fmt.Sprintf(format, args...))
	}
}

// walk compares a and b, of one type, reached at path. A nil slice or
// map equals an empty one; functions are compared by nil-ness only,
// since the restoring install rebuilds every closure.
func (w *walker) walk(path string, a, b reflect.Value) {
	t := a.Type()
	switch t.String() {
	case "cache.SetAssoc":
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i).Name; f != "slabs" {
				w.walk(path+"."+f, a.Field(i), b.Field(i))
			}
		}
		w.slabs(path, a, b)
		return
	case "cache.lineTable":
		// Slot positions and capacity depend on the order of inserts and
		// deletes, which a restore does not replay. The entries are not
		// compared either: RestoreState's CheckDirectory proves them equal
		// to the restored caches, which slabs compares.
		for _, f := range []string{"n", "peak"} {
			w.walk(path+"."+f, a.FieldByName(f), b.FieldByName(f))
		}
		return
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.diff(path, "nil %v vs nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if t.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			w.diff(path, "dynamic type %v vs %v", a.Elem().Type(), b.Elem().Type())
			return
		}
		if t.Kind() == reflect.Pointer {
			v := visit{a.Pointer(), b.Pointer(), t}
			if w.seen[v] {
				return
			}
			w.seen[v] = true
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() {
			w.diff(path, "nil %v vs nil %v", a.IsNil(), b.IsNil())
		}
	case reflect.Struct:
		provider := isProvider(t)
		if provider {
			w.providers[t] = true
		}
		for i := 0; i < t.NumField(); i++ {
			name := t.String() + "." + t.Field(i).Name
			if _, skip := notState[name]; skip {
				continue
			}
			fa, fb := a.Field(i), b.Field(i)
			if provider && (nonZero(fa) || nonZero(fb)) {
				w.nonzero[name] = true
			}
			w.walk(path+"."+t.Field(i).Name, fa, fb)
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			w.diff(path, "length %d vs %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			w.diff(path, "%d entries vs %d", a.Len(), b.Len())
			return
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); bv.IsValid() {
				w.walk(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv)
			} else {
				w.diff(fmt.Sprintf("%s[%v]", path, k), "missing")
			}
		}
	default:
		if !a.Equal(b) {
			w.diff(path, "%v vs %v", a, b)
		}
	}
}

// nonZero reports whether a field holds anything: an element for a slice
// or map, a non-zero value otherwise.
func nonZero(v reflect.Value) bool {
	if k := v.Kind(); k == reflect.Slice || k == reflect.Map {
		return v.Len() > 0
	}
	return !v.IsZero()
}

// slabs compares two caches' ways as the snapshot sees them: set by set
// and way by way through (*cache.SetAssoc).Way, wherever and however wide
// each cache's layout keeps the set — a sparse cache's arena order follows
// fill order, and a restore gives a set whose ways above the small block's
// were invalidated a small block. An Invalid way is empty whatever LRU
// stamp it kept (Insert fills the first Invalid way, never by LRU, and
// saveCache skips it), and the touched bitmap is a recycling hint
// restoreCache rebuilds from the sets it fills.
func (w *walker) slabs(path string, a, b reflect.Value) {
	ca, cb := setAssoc(a), setAssoc(b)
	cfg := ca.Config()
	for set := 0; set < cfg.Sets(); set++ {
		for i := 0; i < cfg.Ways; i++ {
			at := fmt.Sprintf("%s[set %d way %d]", path, set, i)
			ta, sa, la := ca.Way(set, i)
			tb, sb, lb := cb.Way(set, i)
			switch {
			case sa != sb:
				w.diff(at+".state", "%v vs %v", sa, sb)
			case sa == cache.Invalid:
			case ta != tb:
				w.diff(at+".tags", "%#x vs %#x", uint64(ta), uint64(tb))
			case la != lb:
				w.diff(at+".lru", "%d vs %d", la, lb)
			}
		}
	}
}

// setAssoc returns the cache an addressable cache.SetAssoc value holds,
// which the walk may have reached through unexported fields.
func setAssoc(v reflect.Value) *cache.SetAssoc {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Interface().(*cache.SetAssoc)
}
