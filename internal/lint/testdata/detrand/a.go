// Package a is the detrand golden package: math/rand is not importable
// in library code at all — the global source is shared mutable state and
// a private one cannot be snapshotted — so the finding sits on the
// import, whatever the file then does with it.
package a

import (
	"math/rand" // want `math/rand imported in library code`
)

func useGlobal() int {
	return rand.Intn(10)
}

// seeded was the sanctioned pattern before internal/rng carried every
// stream; it needs the import too, so it is covered by the same finding.
func seeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10)
}
