package lint_test

import (
	"testing"

	"threadcluster/internal/lint"
	"threadcluster/internal/lint/linttest"
)

// realRNG analyzes the genuine internal/rng first: the primitive
// seeding sites are its New and Restore, and rng.Derive's derivation
// summary must arrive as a fact computed from the real source (which
// must itself be clean).
var realRNG = linttest.Dep{Dir: "../rng", AsPath: lint.ModulePath + "/internal/rng"}

func TestSeedFlow(t *testing.T) {
	linttest.RunWithDeps(t, lint.SeedFlow, []linttest.Dep{realRNG},
		"testdata/seedflow", lint.ModulePath+"/internal/experiments")
}

// TestSeedFlowCrossPackage: the library package's seeding obligations
// and derivation summaries reach the consuming package as facts.
func TestSeedFlowCrossPackage(t *testing.T) {
	linttest.RunWithDeps(t, lint.SeedFlow,
		[]linttest.Dep{realRNG, {Dir: "testdata/seedflow_lib", AsPath: lint.ModulePath + "/internal/seedflowlib"}},
		"testdata/seedflow_use", lint.ModulePath+"/internal/seedflowuse")
}

func TestSeedFlowScope(t *testing.T) {
	for path, want := range map[string]bool{
		lint.ModulePath:                   true,
		lint.ModulePath + "/internal/rng": true,
		lint.ModulePath + "/cmd/tcsim":    false,
		"other/module":                    false,
	} {
		if got := lint.SeedFlow.Appropriate(path); got != want {
			t.Errorf("SeedFlow.Appropriate(%q) = %v, want %v", path, got, want)
		}
	}
}
