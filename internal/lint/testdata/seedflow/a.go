// Package a is the seedflow golden package: every site that positions a
// generator — rng.New's argument, the State given to Restore — must
// receive a value traceable to a run seed (a Seed-named config field or
// package variable, arithmetic over one, rng.Derive of one, a draw from a
// seeded generator, a value read back from a snapshot, or a call
// summarized as seed-deriving).
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

func constantSeed() *rng.Rand {
	return rng.New(42) // want `rng\.New is seeded with a constant`
}

func opaqueSeed() *rng.Rand {
	return rng.New(counter) // want `rng\.New seed argument is not traceable`
}

func fieldSeed(cfg Config) *rng.Rand {
	return rng.New(cfg.Seed) // traceable: Seed field
}

func derivedSeed(cfg Config, i int) *rng.Rand {
	// The tree's one derivation: its summary arrives as a fact (here,
	// from the real internal/rng source).
	return rng.New(rng.Derive(cfg.Seed, i))
}

func derivedConstant(i int) *rng.Rand {
	return rng.New(rng.Derive(20070321, 3)) // want `rng\.New is seeded with a constant`
}

func mixedSeed(cfg Config, i int) *rng.Rand {
	// Integer arithmetic over the run seed stays seed-derived.
	return rng.New(cfg.Seed*86243 + int64(i))
}

func localFlow(cfg Config) *rng.Rand {
	seed := cfg.Seed
	seed = seed ^ (seed >> 30)
	return rng.New(seed)
}

func drawnSeed(cfg Config) *rng.Rand {
	r := rng.New(cfg.Seed)
	// A draw from an already-seeded generator is run-seed-derived.
	return rng.New(r.Int63n(1 << 40))
}

// restore: the State given to Restore is judged by its Seed field.
func restore(r *rng.Rand, other *rng.Rand, cfg Config, d *snapbin.Dec) {
	r.Restore(rng.State{Seed: cfg.Seed + 1, Draws: 9})
	r.Restore(other.State())                // a seeded generator's own position
	r.Restore(rng.State{Seed: 7, Draws: 9}) // want `rng\.Rand\.Restore is seeded with a constant`
	r.Restore(rng.State{Draws: 9})          // want `rng\.Rand\.Restore is seeded with a constant`
	r.Restore(rng.State{Seed: counter})     // want `rng\.Rand\.Restore seed argument is not traceable`

	// The int64 a restore function reads back from a snapshot was
	// written by a seeded run; a decoded count is not a seed.
	seed, draws := d.I64(), d.U64()
	r.Restore(rng.State{Seed: seed, Draws: draws})
	r.Restore(rng.State{Seed: int64(d.U32())}) // want `rng\.Rand\.Restore seed argument is not traceable`

	st := rng.State{Seed: counter, Draws: 1}
	r.Restore(st) // want `rng\.Rand\.Restore seed argument is not traceable`
}

// load is not a restore function: what it decodes is just a number.
func load(r *rng.Rand, d *snapbin.Dec) *rng.Rand {
	r.Restore(rng.State{Seed: d.I64()}) // want `rng\.Rand\.Restore seed argument is not traceable`
	return rng.New(d.I64())             // want `rng\.New seed argument is not traceable`
}

// newGen's seed parameter becomes an obligation on its callers rather
// than a finding here.
func newGen(seed int64) *rng.Rand {
	return rng.New(seed)
}

// rewind's State parameter does too.
func rewind(r *rng.Rand, st rng.State) {
	r.Restore(st)
}

// mix returns a seed-derived value iff either parameter receives one.
func mix(base, salt int64) int64 {
	z := base + salt*0x9E3779B9
	z = (z ^ (z >> 27)) * 0x94D049BB
	return z
}

func callers(cfg Config, r *rng.Rand) {
	newGen(cfg.Seed)          // obligation satisfied by the Seed field
	newGen(mix(cfg.Seed, 11)) // and through the summarized mixer
	newGen(3)                 // want `a\.newGen is seeded with a constant`
	newGen(mix(4, 5))         // want `a\.newGen is seeded with a constant`
	newGen(counter)           // want `a\.newGen seed argument is not traceable`

	rewind(r, rng.State{Seed: cfg.Seed})
	rewind(r, rng.State{Seed: 5}) // want `a\.rewind is seeded with a constant`
}

// chain proves obligations compose in-package: chain obligates its own
// caller via newGen's obligation.
func chain(runSeed int64) {
	newGen(runSeed)
}

func chainCaller(cfg Config) {
	chain(cfg.Seed)
	chain(9) // want `a\.chain is seeded with a constant`
}
