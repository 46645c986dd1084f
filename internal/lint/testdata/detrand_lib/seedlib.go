// Package seedlib is the provider side of the cross-package detrand seed
// golden pair: its consumers see only its export data, whose parameter
// names make NewGen's argument a seed position.
package seedlib

import (
	"threadcluster/internal/rng"
)

// NewGen seeds a generator from its seed parameter.
func NewGen(seed int64) *rng.Rand {
	return rng.New(seed)
}

// Mix is a SplitMix64-style derivation. Its parameters are not
// seed-named, so its arguments are not seed positions.
func Mix(base, salt int64) int64 {
	z := uint64(base) + uint64(salt)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	return int64(z >> 1)
}
