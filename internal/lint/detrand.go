package lint

import "strconv"

// DetRand forbids math/rand and math/rand/v2 in library code outright.
// Every stochastic component draws from an internal/rng generator
// seeded by rng.Derive from the engine or sweep seed (see DESIGN.md
// §6): that generator's state is the sixteen bytes a snapshot stores,
// while a math/rand source is either the process-global one — shared
// mutable state that makes two runs with the same seed diverge as soon
// as goroutine interleaving differs — or a private one no snapshot can
// capture. Banning the import covers both, under any alias or a dot
// import. Tests are not library code and stay free to use math/rand.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid importing math/rand and math/rand/v2 in library code; " +
		"randomness must come from an internal/rng generator seeded from the engine/sweep seed",
	Appropriate: inLibrary,
	Run:         runDetRand,
}

func runDetRand(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || (path != "math/rand" && path != "math/rand/v2") {
				continue
			}
			pass.Reportf(imp.Pos(), "%s imported in library code; draw from an internal/rng generator seeded with rng.Derive from the run seed", path)
		}
	}
	return nil
}
