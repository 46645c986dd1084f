package lint

import "go/ast"

// wallclockFuncs are the time functions that read the wall clock.
var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Wallclock forbids reading the wall clock in library code. Simulated
// time is cycle counts; any result, metric or AccessResult derived from
// the wall clock varies run to run and breaks the byte-identical contract
// the sweep runner and the coherence differential harness depend on.
// Library code takes an injected clock; only the binaries under cmd/
// decide that the clock is the wall, so they are out of scope, as are
// benchmarks (_test.go files are not checked).
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid the wall clock (time's Now, Since, Until) in library code; " +
		"simulated time is cycle counts and wall time breaks run-to-run determinism",
	Appropriate: inLibrary,
	Run:         runWallclock,
}

func runWallclock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkgNameOf(pass.TypesInfo, sel) != "time" || !wallclockFuncs[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock, which breaks run-to-run determinism; use simulated cycles, inject a Clock, or time the work in cmd/", sel.Sel.Name)
			return true
		})
	}
	return nil
}
