// Package rng is the simulator's random number generator, a
// counter-based SplitMix64: a generator is a seed and a count of draws,
// and its n-th output is mix(mix(seed) + n·γ). The sixteen bytes a
// snapshot stores are therefore its complete state. New is the only call
// that picks a stream; Restore moves a generator along its own. A run's
// scheduler draws from the run seed's own stream; every other stream is
// seeded with Derive(run seed, stream index), so adding a consumer never
// shifts another's stream and siblings never start on adjacent counters.
package rng

import (
	"fmt"
	"math/bits"

	"threadcluster/internal/errs"
)

// gamma is SplitMix64's counter increment (2^64/φ, odd).
const gamma = 0x9E3779B97F4A7C15

// mix is the SplitMix64 finalizer, a bijection on uint64.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Derive maps (seed, stream index) to the seed of an independent
// stream. The result is non-negative, which reads better in reports.
func Derive(seed int64, index int) int64 {
	return int64(mix(uint64(seed)+uint64(index)*gamma) &^ (1 << 63))
}

// State is a generator's complete state: its seed and outputs consumed.
type State struct {
	Seed  int64
	Draws uint64
}

// Rand is a snapshotable generator.
type Rand struct {
	seed int64
	key  uint64 // mix(seed), kept so a draw is one mix rather than two
	n    uint64
}

// New returns a generator at the start of seed's stream.
func New(seed int64) *Rand { return &Rand{seed: seed, key: mix(uint64(seed))} }

// State returns the generator's current position.
func (r *Rand) State() State { return State{Seed: r.seed, Draws: r.n} }

// Restore moves the generator to draw st.Draws of its own stream. It
// refuses another seed's State with errs.ErrBadConfig and stays put.
func (r *Rand) Restore(st State) error {
	if mix(uint64(st.Seed)) != r.key { // mix is a bijection: equal keys, equal seeds
		return fmt.Errorf("rng: restoring a seed-%d position onto a seed-%d generator: %w", st.Seed, r.seed, errs.ErrBadConfig)
	}
	r.n = st.Draws
	return nil
}

// Uint64 returns the next output.
func (r *Rand) Uint64() uint64 {
	r.n++
	return mix(r.key + r.n*gamma)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Int63n returns a uniform int64 in [0, n) by Lemire's multiply-shift:
// the high word of a 64×64 product, redrawing only when the low word
// falls in the biased sliver below 2^64 mod n. It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: bound must be positive")
	}
	hi, lo := bits.Mul64(r.Uint64(), uint64(n))
	if lo < uint64(n) {
		for thresh := -uint64(n) % uint64(n); lo < thresh; {
			hi, lo = bits.Mul64(r.Uint64(), uint64(n))
		}
	}
	return int64(hi)
}
