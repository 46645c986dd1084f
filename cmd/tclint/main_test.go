package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"threadcluster/internal/lint"
)

// TestSelfClean is the suite's acceptance gate: tclint must exit clean
// on the repository that defines it. Any new violation of the
// determinism/error/context contracts fails this test (and `make lint`)
// until fixed or annotated with a justified //tclint:allow. The cmd/
// tree is on the wallclock allowlist — operator-facing progress timing
// and the daemon's system clock live there, mirroring `make lint`'s
// -wallclock.allow=threadcluster/cmd.
func TestSelfClean(t *testing.T) {
	defer func(prev []string) { lint.WallclockAllowlist = prev }(lint.WallclockAllowlist)
	lint.WallclockAllowlist = []string{"threadcluster/cmd"}
	diags, err := lint.Run("../..", []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("tclint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTclint compiles the tclint binary once per test process.
func buildTclint(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "tclint")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, "tclint"), ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			buildDir = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building tclint: %v\n%s", buildErr, buildDir)
	}
	return filepath.Join(buildDir, "tclint")
}

// scratchModule writes files (relative path -> content) into a fresh
// module that reuses our module path, so the scoping rules apply.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module threadcluster\n\ngo 1.22\n"
	for rel, content := range files {
		full := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestJSONOutput pins the -json contract: a clean tree emits a literal
// empty array, a dirty one emits position-sorted objects with the
// documented field order, and the exit codes match text mode.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds scratch modules")
	}
	bin := buildTclint(t)

	clean := scratchModule(t, map[string]string{"root.go": "package threadcluster\n\nfunc Add(a, b int) int { return a + b }\n"})
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = clean
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tclint -json on a clean module: %v\n%s", err, out)
	}
	if got := strings.TrimSpace(string(out)); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}

	dirty := scratchModule(t, map[string]string{"root.go": `package threadcluster

import (
	"math/rand"
	"time"
)

func Pick() int { return rand.Intn(5) }

func Stamp() int64 { return time.Now().UnixNano() }
`})
	cmd = exec.Command(bin, "-json", "./...")
	cmd.Dir = dirty
	out, err = cmd.Output()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("tclint -json on a dirty module: err = %v, want exit code 1", err)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2:\n%s", len(diags), out)
	}
	for i := 1; i < len(diags); i++ {
		if diags[i-1].File > diags[i].File ||
			(diags[i-1].File == diags[i].File && diags[i-1].Line > diags[i].Line) {
			t.Errorf("diagnostics not position-sorted:\n%s", out)
		}
	}
	wantAnalyzers := map[string]string{
		"detrand":   "math/rand imported in library code",
		"wallclock": "time.Now reads the wall clock",
	}
	for _, d := range diags {
		frag, ok := wantAnalyzers[d.Analyzer]
		if !ok {
			t.Errorf("unexpected analyzer %q in:\n%s", d.Analyzer, out)
			continue
		}
		delete(wantAnalyzers, d.Analyzer)
		if !strings.Contains(d.Message, frag) {
			t.Errorf("analyzer %s message = %q, want fragment %q", d.Analyzer, d.Message, frag)
		}
		if d.File == "" || d.Line == 0 || d.Column == 0 {
			t.Errorf("diagnostic missing position data: %+v", d)
		}
	}
	for name := range wantAnalyzers {
		t.Errorf("no %s diagnostic in:\n%s", name, out)
	}
}

// TestStandaloneOnDirtyModule runs tclint in text mode against a dirty
// scratch module to pin the exit-code contract.
func TestStandaloneOnDirtyModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module")
	}
	bin := buildTclint(t)
	dir := scratchModule(t, map[string]string{"root.go": `package threadcluster

import "math/rand"

func Pick() int { return rand.Intn(5) }
`})
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("tclint on a dirty module: err = %v, want exit code 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "math/rand imported in library code") {
		t.Errorf("missing detrand diagnostic; got:\n%s", out)
	}
}
