package lint_test

import (
	"testing"

	"threadcluster/internal/lint"
	"threadcluster/internal/lint/linttest"
)

func TestDetRand(t *testing.T) {
	linttest.Run(t, lint.DetRand, "testdata/detrand", lint.ModulePath+"/internal/workloads")
}

// TestDetRandSeed: the seed rule's goldens, analyzed after the genuine
// internal/rng, whose own seed positions (New, Derive) must be clean.
func TestDetRandSeed(t *testing.T) {
	linttest.RunWithDeps(t, lint.DetRand,
		[]linttest.Dep{{Dir: "../rng", AsPath: lint.ModulePath + "/internal/rng"}},
		"testdata/detrand_seed", lint.ModulePath+"/internal/experiments")
}

// TestDetRandCrossPackage: a seed position in another package is found
// from that package's signatures alone; no facts are involved.
func TestDetRandCrossPackage(t *testing.T) {
	linttest.RunWithDeps(t, lint.DetRand,
		[]linttest.Dep{{Dir: "testdata/detrand_lib", AsPath: lint.ModulePath + "/internal/detrandlib"}},
		"testdata/detrand_use", lint.ModulePath+"/internal/detranduse")
}

// TestDetRandScope: the analyzer only covers library code; a cmd/
// package may use ad hoc randomness (none does today, but the scope is
// part of the contract).
func TestDetRandScope(t *testing.T) {
	for path, want := range map[string]bool{
		lint.ModulePath:                          true,
		lint.ModulePath + "/internal/sim":        true,
		lint.ModulePath + "/cmd/tcsim":           false,
		lint.ModulePath + "/examples/quickstart": false,
		"other/module":                           false,
	} {
		if got := lint.DetRand.Appropriate(path); got != want {
			t.Errorf("DetRand.Appropriate(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestSeedFlowScope: detrand's seed rule covers internal/rng itself,
// whose Derive forwards its seed parameter, and stops at the module edge
// and at cmd/ packages.
func TestSeedFlowScope(t *testing.T) {
	for path, want := range map[string]bool{
		lint.ModulePath:                   true,
		lint.ModulePath + "/internal/rng": true,
		lint.ModulePath + "/cmd/tcsim":    false,
		"other/module":                    false,
	} {
		if got := lint.DetRand.Appropriate(path); got != want {
			t.Errorf("DetRand.Appropriate(%q) = %v, want %v", path, got, want)
		}
	}
}
