// Package seedlib is the provider side of the cross-package seedflow
// golden pair: its exported functions carry seeding obligations and
// derivation summaries as facts that the consuming package must honor.
package seedlib

import (
	"threadcluster/internal/rng"
)

// NewGen seeds a generator; the seed parameter becomes a cross-package
// obligation ({0} in NewGen's SinkGroups fact).
func NewGen(seed int64) *rng.Rand {
	return rng.New(seed)
}

// Mix is a SplitMix64-style derivation: its result is seed-derived iff
// either argument is (ResultParams {0, 1}).
func Mix(base, salt int64) int64 {
	z := uint64(base) + uint64(salt)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	return int64(z >> 1)
}
