package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"threadcluster/internal/cache"
	"threadcluster/internal/core"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
)

var updateHarnessGolden = flag.Bool("update-harness-golden", false,
	"rewrite testdata/harness_golden.sha256 from the current implementation")

const harnessGoldenPath = "testdata/harness_golden.sha256"

// goldenOptions runs every harness at tiny round counts: long enough
// for each forced detection to complete and the phase shift to land,
// short enough for the whole catalogue to fit the -short budget.
func goldenOptions() Options {
	opt := DefaultOptions()
	opt.WarmRounds, opt.EngineRounds, opt.MeasureRounds = 20, 60, 20
	return opt
}

// slowEntry reports the catalogue entries whose cost is set by the
// detection phase's sample target or a working-set walk rather than by
// the round counts.
func slowEntry(name string) bool {
	switch name {
	case "fig5", "fig8", "spatial", "ablation", "threshold", "pagevspmu", "probe":
		return true
	}
	return false
}

// renderGolden runs one catalogue entry and returns its rendered output.
func renderGolden(t *testing.T, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RunExperiment(context.Background(), &buf, name, Volano, goldenOptions(), false); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.String()
}

// readGolden returns the pinned output digest of every catalogue entry.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(harnessGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-harness-golden): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = sum
	}
	return want
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestHarnessGolden pins every experiment's rendered output, byte for
// byte, to digests captured before the harnesses were moved onto the
// shared rig (the internal/sim/golden_test.go discipline). A mismatch
// means a harness now builds, attaches or measures differently than it
// did. Regenerate with -update-harness-golden only for an intentional
// change to the simulated model or a harness's procedure.
func TestHarnessGolden(t *testing.T) {
	if *updateHarnessGolden {
		var sb strings.Builder
		for _, name := range ExperimentNames() {
			fmt.Fprintf(&sb, "%s  %s\n", digest(renderGolden(t, name)), name)
		}
		if err := os.MkdirAll(filepath.Dir(harnessGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(harnessGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t)
	names := ExperimentNames()
	if len(want) != len(names) {
		t.Errorf("golden pins %d experiments, catalogue has %d", len(want), len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			if slowEntry(name) && testing.Short() {
				t.Skipf("%s runs to a fixed sample target or working-set walk; slow", name)
			}
			t.Parallel() // entries share nothing; fig8 alone is half the serial cost
			out := renderGolden(t, name)
			if got := digest(out); got != want[name] {
				t.Errorf("output digest %s, golden %s; output now:\n%s", got, want[name], out)
			}
		})
	}
}

// goldenPins records the sha256 of harness_golden.sha256 at each
// DigestEpoch. Deleting an experiment deletes its line and re-pins the
// epoch without bumping it, and so does a line whose rendering moves
// while no cell record, payload or simulated number does.
var goldenPins = map[int]string{
	1: "0d83ca4ae08321b42255284ab4e8726770d5ed7a2597638945689f8aaa465c9e",
}

// TestDigestEpochPinned ties DigestEpoch to the goldens: regenerating
// them without bumping the epoch would let cell records written by the
// old build replay into the new build's payloads.
func TestDigestEpochPinned(t *testing.T) {
	raw, err := os.ReadFile(harnessGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != goldenPins[DigestEpoch] {
		t.Fatalf("goldens moved: bump DigestEpoch and re-pin (%s hashes to %s; epoch %d pins %q)",
			harnessGoldenPath, got, DigestEpoch, goldenPins[DigestEpoch])
	}
}

// TestHarnessOptionsReachMachine runs every experiment with the
// non-default coherence mode and requires every machine it builds to
// carry it — no harness may drop an Options field on the way to its
// machine — and to be closed by the time the experiment returns. The
// slow entries build every machine through one cell constructor, so
// they are cancelled once the first machine has been seen.
func TestHarnessOptionsReachMachine(t *testing.T) {
	opt := goldenOptions()
	if testing.Short() {
		// Nothing is compared here, so -short can run shorter still.
		opt.WarmRounds, opt.EngineRounds, opt.MeasureRounds = 2, 6, 4
	}
	opt.Coherence = cache.CoherenceBroadcast
	t.Cleanup(func() { machineBuilt = nil })

	for _, name := range ExperimentNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex // the executor runs cells on sweep pool goroutines
			// Read at build time: the executor closes the machines.
			type carried struct {
				m         *sim.Machine
				coherence cache.CoherenceMode
			}
			var built []carried
			machineBuilt = func(_ CellKey, m *sim.Machine) {
				mu.Lock()
				built = append(built, carried{m, m.Hierarchy().Coherence()})
				mu.Unlock()
				if slowEntry(name) {
					cancel()
				}
			}
			err := RunExperiment(ctx, io.Discard, name, Volano, opt, false)
			if err != nil && !(slowEntry(name) && errors.Is(err, context.Canceled)) {
				t.Fatal(err)
			}
			if len(built) == 0 && name != "table1" && name != "fig1" {
				t.Error("built no machine through the rig")
			}
			for i, m := range built {
				if m.coherence != cache.CoherenceBroadcast {
					t.Errorf("machine %d of %d: coherence %v, want broadcast", i+1, len(built), m.coherence)
				}
				if !closed(m.m) {
					t.Errorf("machine %d of %d: still open after the experiment returned", i+1, len(built))
				}
			}
		})
	}
}

// TestSnapshotEngineIndependence: the simulator's two drivers are a
// host choice, not an input. A clustered microbenchmark built through
// MachineConfig snapshots to one digest after 40 rounds whether its
// deferred rounds run chip by chip (sim.EngineSeq) or chip-parallel,
// with the clustering engine attached.
func TestSnapshotEngineIndependence(t *testing.T) {
	ctx := context.Background()
	digest := func(engine sim.Engine) string {
		cfg := MachineConfig(DefaultOptions(), sched.PolicyClustered)
		cfg.Engine = engine
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		spec, err := BuildWorkload(Microbenchmark, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Install(m); err != nil {
			t.Fatal(err)
		}
		e, err := core.New(m, ScaledEngineConfig(cfg.Seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Install(); err != nil {
			t.Fatal(err)
		}
		if err := m.RunRoundsCtx(ctx, 40); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Digest()
	}
	if seq, par := digest(sim.EngineSeq), digest(sim.EngineParallel); seq != par {
		t.Errorf("digest differs across engines: seq %s, parallel %s", seq, par)
	}
}

// TestMachinesComeFromTheRig fails if a non-test file of the package
// builds a machine configuration or a machine, makes a rig, builds or
// closes the machine of a rig it is handed, or fans work out over the
// sweep pool anywhere but rig.go, so the hand-rolled set-ups and
// per-study loops cannot grow back: an experiment declares cells and the
// executor builds, runs and closes them.
func TestMachinesComeFromTheRig(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "rig.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			rigs := map[string]bool{} // names the file declares *rig
			ast.Inspect(file, func(n ast.Node) bool {
				if f, ok := n.(*ast.Field); ok {
					if star, ok := f.Type.(*ast.StarExpr); ok && isIdent(star.X, "rig") {
						for _, name := range f.Names {
							rigs[name.Name] = true
						}
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok && isIdent(lit.Type, "rig") {
					t.Errorf("%s makes a rig; the executor makes every cell's rig", path)
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if isIdent(sel.X, "sim") && (sel.Sel.Name == "NewMachine" || sel.Sel.Name == "DefaultConfig") {
					t.Errorf("%s uses sim.%s; describe a study and let the rig build the machine", path, sel.Sel.Name)
				}
				if isIdent(sel.X, "sweep") && (sel.Sel.Name == "Map" || sel.Sel.Name == "Each") {
					t.Errorf("%s uses sweep.%s; declare cells and let runCells execute them", path, sel.Sel.Name)
				}
				root := sel.X
				for s, ok := root.(*ast.SelectorExpr); ok; s, ok = root.(*ast.SelectorExpr) {
					root = s.X
				}
				if id, ok := root.(*ast.Ident); ok && rigs[id.Name] && (sel.Sel.Name == "build" || sel.Sel.Name == "Close") {
					t.Errorf("%s calls .%s on a rig; the executor builds and closes every cell's machine", path, sel.Sel.Name)
				}
				return true
			})
		}
	}
}

func isIdent(x ast.Expr, name string) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
}

// catalogueRender is one render of the catalogue: each entry's output,
// every machine built, and the render's error.
type catalogueRender struct {
	outs  map[string]string
	built []*sim.Machine
	err   error
}

// rendered holds a test binary's catalogue render at each GOMAXPROCS
// level it runs at (-cpu), each on an executor of its own: the tests
// that observe its machines share it. They run one at a time.
var rendered = map[int]*catalogueRender{}

// renderCatalogue renders the catalogue, as `-exp all` does with fig3 on
// Volano alone, at goldenOptions, and returns each entry's output and
// every machine built. Under -short it leaves out the slow entries.
func renderCatalogue(t *testing.T) (map[string]string, []*sim.Machine) {
	t.Helper()
	r := rendered[runtime.GOMAXPROCS(0)]
	if r == nil {
		r = &catalogueRender{}
		r.outs, r.built, r.err = renderCatalogueOnce()
		rendered[runtime.GOMAXPROCS(0)] = r
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.outs, r.built
}

func renderCatalogueOnce() (map[string]string, []*sim.Machine, error) {
	entries := catalogueUnderTest()
	var buf bytes.Buffer
	outs := map[string]string{}
	for i, e := range entries {
		run := e.run // record what the entry prints when it renders
		entries[i].run = func(ctx context.Context, p *printer, opt Options) error {
			start := buf.Len()
			err := run(ctx, p, opt)
			outs[e.name] = buf.String()[start:]
			return err
		}
	}
	var mu sync.Mutex // the executor builds machines on sweep pool goroutines
	var built []*sim.Machine
	machineBuilt = func(_ CellKey, m *sim.Machine) {
		mu.Lock()
		built = append(built, m)
		mu.Unlock()
	}
	defer func() { machineBuilt = nil }()
	p := &printer{w: &buf, fig3Workloads: []string{Volano}}
	err := render(context.Background(), p, entries, goldenOptions())
	return outs, built, err
}

// catalogueUnderTest is the catalogue, without its slow entries under
// -short.
func catalogueUnderTest() []experiment {
	var entries []experiment
	for _, e := range catalogue {
		if !testing.Short() || !slowEntry(e.name) {
			entries = append(entries, e)
		}
	}
	return entries
}

// TestExperimentsCloseEveryMachine: every machine the catalogue builds
// is closed by the time it has rendered, its cache slabs handed back to
// the pool.
func TestExperimentsCloseEveryMachine(t *testing.T) {
	_, built := renderCatalogue(t)
	if len(built) == 0 {
		t.Fatal("the catalogue built no machine")
	}
	for i, m := range built {
		if !closed(m) {
			t.Errorf("machine %d of %d left open", i+1, len(built))
		}
	}
}

// TestCatalogueSharesCells: the catalogue rendered as one run prints, entry
// by entry, exactly what each entry prints alone (the harness golden), and
// builds one machine per distinct cell it plans. This is the guard that a
// cell's name and Options name everything its run depends on: two cells
// that share a key but compute different things would print differently
// here than alone.
func TestCatalogueSharesCells(t *testing.T) {
	outs, built := renderCatalogue(t)
	want := readGolden(t)
	for name, out := range outs {
		if got := digest(out); got != want[name] {
			t.Errorf("%s rendered with the catalogue: digest %s, alone %s; output:\n%s", name, got, want[name], out)
		}
	}
	m, err := plan(context.Background(), &printer{fig3Workloads: []string{Volano}}, catalogueUnderTest(), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[CellKey]bool{}
	for _, c := range m.planned {
		distinct[c.key()] = true
	}
	if len(built) != len(distinct) {
		t.Errorf("built %d machines for %d distinct cells (%d planned)", len(built), len(distinct), len(m.planned))
	}
	t.Logf("%d entries: %d cells planned, %d distinct, %d machines built", len(outs), len(m.planned), len(distinct), len(built))
}
