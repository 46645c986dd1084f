package main

import (
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
// until fixed.
func TestSelfClean(t *testing.T) {
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
