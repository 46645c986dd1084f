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
	defer func(prev bool) { lint.RequireAllowReason = prev }(lint.RequireAllowReason)
	lint.WallclockAllowlist = []string{"threadcluster/cmd"}
	lint.RequireAllowReason = true
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

// TestVersionHandshake checks the -V=full fingerprint protocol go vet
// uses to identify vettools for its build cache.
func TestVersionHandshake(t *testing.T) {
	out, err := exec.Command(buildTclint(t), "-V=full").Output()
	if err != nil {
		t.Fatalf("tclint -V=full: %v", err)
	}
	got := string(out)
	if !strings.HasPrefix(got, "tclint version ") {
		t.Fatalf("tclint -V=full = %q, want a 'tclint version ...' line", got)
	}
}

// TestVettoolProtocol drives the binary exactly as `go vet -vettool=`
// does, against a scratch module that reuses our module path so the
// scoping rules apply: a clean package passes, a seeded wallclock +
// detrand violation fails with our diagnostics.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module and shells out to go vet")
	}
	bin := buildTclint(t)

	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module threadcluster\n\ngo 1.22\n")
	write("internal/clean/clean.go", `package clean

func Add(a, b int) int { return a + b }
`)
	write("internal/sim/dirty.go", `package sim

import (
	"math/rand"
	"time"
)

func Jitter() time.Time {
	_ = rand.Intn(3)
	return time.Now()
}
`)

	vet := func(pkg string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, pkg)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	if out, err := vet("./internal/clean"); err != nil {
		t.Fatalf("go vet -vettool on a clean package failed: %v\n%s", err, out)
	}
	out, err := vet("./internal/sim")
	if err == nil {
		t.Fatalf("go vet -vettool on a dirty package passed; output:\n%s", out)
	}
	for _, wantFragment := range []string{
		"math/rand imported in library code",
		"time.Now reads the wall clock",
	} {
		if !strings.Contains(out, wantFragment) {
			t.Errorf("go vet output missing %q; got:\n%s", wantFragment, out)
		}
	}
}

// TestVettoolFacts proves facts survive the real vetx round-trip: the
// seed obligation on seedlib.NewGen is computed while go vet analyzes
// the library package, serialized into its vetx file, and read back
// when the dependent package is checked — the constant-seed diagnostic
// in the caller is only possible if that file carried the fact.
func TestVettoolFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module and shells out to go vet")
	}
	bin := buildTclint(t)

	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module threadcluster\n\ngo 1.22\n")
	// seedflow's primitive seeding site is threadcluster/internal/rng.New,
	// by path and name; the scratch module supplies a stand-in.
	write("internal/rng/rng.go", `package rng

type Rand struct{ seed int64 }

func New(seed int64) *Rand { return &Rand{seed: seed} }
`)
	write("internal/seedlib/seedlib.go", `package seedlib

import "threadcluster/internal/rng"

// NewGen picks up a seed obligation on its parameter: callers must
// pass something traceable to a run seed.
func NewGen(seed int64) *rng.Rand {
	return rng.New(seed)
}
`)
	write("internal/sim/use.go", `package sim

import "threadcluster/internal/seedlib"

type Config struct {
	Seed int64
}

func Fine(cfg Config) {
	_ = seedlib.NewGen(cfg.Seed)
}

func Broken() {
	_ = seedlib.NewGen(42)
}
`)

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed despite a constant seed crossing a package boundary; output:\n%s", out)
	}
	got := string(out)
	if !strings.Contains(got, "seedlib.NewGen is seeded with a constant") {
		t.Errorf("missing cross-package seedflow diagnostic; got:\n%s", got)
	}
	if strings.Contains(got, "cfg.Seed") || strings.Contains(got, "Fine") {
		t.Errorf("traceable call site reported; got:\n%s", got)
	}
}

// TestJSONOutput pins the -json contract: a clean tree emits a literal
// empty array, a dirty one emits position-sorted objects with the
// documented field order, and the exit codes match text mode.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds scratch modules")
	}
	bin := buildTclint(t)

	mkmod := func(src string) string {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module threadcluster\n\ngo 1.22\n"), 0o666); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "root.go"), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	clean := mkmod("package threadcluster\n\nfunc Add(a, b int) int { return a + b }\n")
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = clean
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tclint -json on a clean module: %v\n%s", err, out)
	}
	if got := strings.TrimSpace(string(out)); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}

	dirty := mkmod(`package threadcluster

import (
	"math/rand"
	"time"
)

func Pick() int { return rand.Intn(5) }

func Stamp() int64 { return time.Now().UnixNano() }
`)
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

// TestStandaloneOnDirtyModule runs standalone mode against the same
// scratch-module shape to pin the exit-code contract.
func TestStandaloneOnDirtyModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module")
	}
	bin := buildTclint(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module threadcluster\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	src := `package threadcluster

import "math/rand"

func Pick() int { return rand.Intn(5) }
`
	if err := os.WriteFile(filepath.Join(dir, "root.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("tclint on a dirty module exited 0; output:\n%s", out)
	}
	if !strings.Contains(string(out), "math/rand imported in library code") {
		t.Errorf("missing detrand diagnostic; got:\n%s", out)
	}
}
