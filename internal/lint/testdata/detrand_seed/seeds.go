// The seed rule: an argument bound to an integer parameter whose name
// contains "seed" must derive from a run seed — a seed-named variable,
// parameter or field, arithmetic, a conversion or a call over one, or a
// draw from an *rng.Rand.
package a

import (
	"threadcluster/internal/rng"
	"threadcluster/internal/snapbin"
)

// Config carries the run seed the way the repo's components do.
type Config struct {
	Seed  int64
	Salt  int64
	Width int
}

// counter is a package variable with no seed in its name: opaque.
var counter int64

// defaultSeed is seed-named but a constant.
const defaultSeed = 7

func constantSeed() *rng.Rand {
	return rng.New(42) // want `rng\.New is seeded with a constant`
}

func namedConstant() *rng.Rand {
	return rng.New(defaultSeed) // want `rng\.New is seeded with a constant`
}

func opaqueSeed() *rng.Rand {
	return rng.New(counter) // want `rng\.New seed argument is not traceable`
}

func fieldSeed(cfg Config) *rng.Rand {
	return rng.New(cfg.Seed) // a Seed field
}

func derivedSeed(cfg Config, i int) *rng.Rand {
	return rng.New(rng.Derive(cfg.Seed, i))
}

// derivedConstant: one finding for the whole argument, not a second one
// for the rng.Derive seed position nested inside it.
func derivedConstant() *rng.Rand {
	return rng.New(rng.Derive(20070321, 3)) // want `rng\.New is seeded with a constant`
}

func mixedSeed(cfg Config, i int) *rng.Rand {
	// Integer arithmetic over the run seed stays seed-derived.
	return rng.New(cfg.Seed*86243 + int64(i))
}

func localSeed(cfg Config) *rng.Rand {
	seed := cfg.Seed
	seed = seed ^ (seed >> 30)
	return rng.New(seed)
}

func drawnSeed(cfg Config) *rng.Rand {
	r := rng.New(cfg.Seed)
	// A draw from an already-seeded generator is run-seed-derived.
	return rng.New(r.Int63n(1 << 40))
}

// decoded: a number read from a snapshot is just a number. Restore is not
// a seed position: it can only move a generator along its own stream.
func decoded(r *rng.Rand, d *snapbin.Dec) *rng.Rand {
	_ = r.Restore(rng.State{Seed: d.I64()})
	return rng.New(d.I64()) // want `rng\.New seed argument is not traceable`
}

// newGen forwards its seed-named parameter: its callers' arguments are
// seed positions.
func newGen(seed int64) *rng.Rand {
	return rng.New(seed)
}

// mix has no seed-named parameter: its arguments are not seed positions,
// but a call to it is seed-derived when an argument is.
func mix(base, salt int64) int64 {
	z := base + salt*0x9E3779B9
	z = (z ^ (z >> 27)) * 0x94D049BB
	return z
}

func callers(cfg Config) {
	newGen(cfg.Seed)          // a Seed field
	newGen(mix(cfg.Seed, 11)) // through a call
	newGen(3)                 // want `a\.newGen is seeded with a constant`
	newGen(mix(4, 5))         // want `a\.newGen is seeded with a constant`
	newGen(counter)           // want `a\.newGen seed argument is not traceable`
	newGen(int64(cfg.Width))  // want `a\.newGen seed argument is not traceable`
}

// chain forwards runSeed, which is seed-named, so it obligates its own
// callers.
func chain(runSeed int64) {
	newGen(runSeed)
}

func chainCaller(cfg Config) {
	chain(cfg.Seed)
	chain(9) // want `a\.chain is seeded with a constant`
}

// forward passes a parameter that is not seed-named: the finding sits
// here, and the rename to seed… moves the obligation to forward's callers.
func forward(n int64) *rng.Rand {
	return newGen(n) // want `a\.newGen seed argument is not traceable`
}

// funcValue: a function value's parameter names count too.
func funcValue(build func(seed int64) *rng.Rand) *rng.Rand {
	return build(1) // want `build is seeded with a constant`
}
