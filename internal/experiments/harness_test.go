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
	"strings"
	"sync"
	"testing"

	"threadcluster/internal/cache"
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

// renderGolden runs one catalogue entry and returns its rendered output
// with the one wall-clock column (the ablation's "Cost") cut off.
func renderGolden(t *testing.T, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RunExperiment(context.Background(), &buf, name, Volano, goldenOptions(), false); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := buf.String()
	if name != "ablation" {
		return out
	}
	lines := strings.Split(out, "\n")
	cut := strings.Index(lines[1], "Cost")
	if cut < 0 {
		t.Fatalf("ablation table has no Cost column:\n%s", out)
	}
	for i, l := range lines {
		if i > 0 && len(l) > cut {
			lines[i] = l[:cut]
		}
	}
	return strings.Join(lines, "\n")
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
			sum := sha256.Sum256([]byte(renderGolden(t, name)))
			fmt.Fprintf(&sb, "%s  %s\n", hex.EncodeToString(sum[:]), name)
		}
		if err := os.MkdirAll(filepath.Dir(harnessGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(harnessGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
			sum := sha256.Sum256([]byte(out))
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("output digest %s, golden %s; output now:\n%s", got, want[name], out)
			}
		})
	}
}

// goldenPins records the sha256 of harness_golden.sha256 at each
// DigestEpoch.
var goldenPins = map[int]string{
	1: "abac20ba0a21e4786ce7ad46cb258aa6132623e504d1b65efc852bbe18e365d5",
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
// non-default coherence mode and execution engine and requires every
// machine it builds to carry them: no harness may drop an Options field
// on the way to its machine. The slow entries build every machine
// through one study closure, so they are cancelled once the first
// machine has been seen.
func TestHarnessOptionsReachMachine(t *testing.T) {
	opt := goldenOptions()
	if testing.Short() {
		// Nothing is compared here, so -short can run shorter still.
		opt.WarmRounds, opt.EngineRounds, opt.MeasureRounds = 2, 6, 4
	}
	opt.Coherence = cache.CoherenceBroadcast
	opt.Engine = sim.EngineSeq
	t.Cleanup(func() { machineBuilt = nil })

	for _, name := range ExperimentNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var mu sync.Mutex // harnesses fan machines out over sweep.Map goroutines
			// Read at build time: a harness closes its machines.
			type carried struct {
				coherence cache.CoherenceMode
				engine    sim.Engine
			}
			var built []carried
			machineBuilt = func(m *sim.Machine) {
				mu.Lock()
				built = append(built, carried{m.Hierarchy().Coherence(), m.Config().Engine})
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
				if m.engine != sim.EngineSeq {
					t.Errorf("machine %d of %d: engine %v, want seq", i+1, len(built), m.engine)
				}
			}
		})
	}
}

// TestMachinesComeFromTheRig fails if a non-test file of the package
// builds a machine configuration or a machine anywhere but rig.go, so
// the hand-rolled set-ups cannot grow back.
func TestMachinesComeFromTheRig(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "rig.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sim" &&
					(sel.Sel.Name == "NewMachine" || sel.Sel.Name == "DefaultConfig") {
					t.Errorf("%s uses sim.%s; describe a study and let the rig build the machine", path, sel.Sel.Name)
				}
				return true
			})
		}
	}
}
