// Package seeduse consumes seedlib across a package boundary: the seed
// positions come from seedlib's signatures, not its source.
package seeduse

import (
	lib "threadcluster/internal/detrandlib"
)

// Opts carries the run seed.
type Opts struct {
	Seed int64
}

var tick int64

func ok(o Opts) {
	lib.NewGen(o.Seed)
	lib.NewGen(lib.Mix(o.Seed, 3))
	lib.NewGen(o.Seed*104729 + 7)
}

func bad() {
	lib.NewGen(1)             // want `seedlib\.NewGen is seeded with a constant`
	lib.NewGen(lib.Mix(5, 6)) // want `seedlib\.NewGen is seeded with a constant`
	lib.NewGen(tick)          // want `seedlib\.NewGen seed argument is not traceable`
}

// wrap forwards its seed-named parameter, so its callers' arguments are
// seed positions too.
func wrap(seed int64) {
	lib.NewGen(seed)
}

func wrapCallers(o Opts) {
	wrap(o.Seed)
	wrap(8) // want `seeduse\.wrap is seeded with a constant`
}
