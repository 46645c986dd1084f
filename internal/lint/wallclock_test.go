package lint_test

import (
	"testing"

	"threadcluster/internal/lint"
	"threadcluster/internal/lint/linttest"
)

func TestWallclock(t *testing.T) {
	linttest.Run(t, lint.Wallclock, "testdata/wallclock", lint.ModulePath+"/internal/sim")
}

// TestWallclockAllowlist: the binaries under cmd/ read the wall clock
// for progress output and the daemons' system clock, so wallclock
// leaves every cmd/ package alone.
func TestWallclockAllowlist(t *testing.T) {
	for _, path := range []string{lint.ModulePath + "/cmd/tcsim", lint.ModulePath + "/cmd/tcsimd"} {
		if lint.Wallclock.Appropriate(path) {
			t.Errorf("%s should be out of wallclock's scope", path)
		}
	}
}

// TestWallclockAllowlistPrefix: the scope is library code, the root
// package and everything under internal/, whatever their names share
// with cmd/.
func TestWallclockAllowlistPrefix(t *testing.T) {
	for _, path := range []string{lint.ModulePath, lint.ModulePath + "/internal/sim", lint.ModulePath + "/internal/cmd"} {
		if !lint.Wallclock.Appropriate(path) {
			t.Errorf("%s must stay covered by wallclock", path)
		}
	}
	for _, path := range []string{lint.ModulePath + "/cmd", "example.com/other/internal/sim"} {
		if lint.Wallclock.Appropriate(path) {
			t.Errorf("%s should be out of wallclock's scope", path)
		}
	}
}
