// Package simtest holds the checks shared by the tests of packages that
// implement sim generators.
package simtest

import (
	"testing"

	"threadcluster/internal/rng"
	"threadcluster/internal/sim"
)

// maxCut bounds one slice's share of a thread's stream in RunsMatchNext:
// long enough to span several B-tree transactions, short enough to cut
// most of them.
const maxCut = 48

// RunsMatchNext checks the RunGenerator contract on two identically built
// thread sets, gens and twins: consuming the twins through NextRun must
// yield exactly the references Next yields from gens, every MemRef field
// included. The threads take turns, each consuming a seeded random number
// of references, the way interleave slices cut a thread's stream at a
// budget rather than at a run boundary; a run's unconsumed tail waits for
// the thread's next turn, as it waits on a sim.Thread. Both sides consume
// in the same turns, so generators that mutate a shared structure at
// generation time (the B-tree workloads) see the same mutation order.
func RunsMatchNext(t testing.TB, gens, twins []sim.Generator, refs int, seed int64) {
	t.Helper()
	if len(gens) == 0 || len(gens) != len(twins) {
		t.Fatalf("%d generators against %d twins", len(gens), len(twins))
	}
	runs := make([]sim.RunGenerator, len(twins))
	for i, g := range twins {
		var ok bool
		if runs[i], ok = g.(sim.RunGenerator); !ok {
			t.Fatalf("thread %d: %T is not a sim.RunGenerator", i, g)
		}
	}
	cut := rng.New(seed)
	pending := make([][]sim.MemRef, len(runs))
	for n, i := 0, 0; n < refs; i = (i + 1) % len(gens) {
		for k := 1 + cut.Intn(maxCut); k > 0 && n < refs; k, n = k-1, n+1 {
			want := gens[i].Next()
			if len(pending[i]) == 0 {
				if pending[i] = runs[i].NextRun(); len(pending[i]) == 0 {
					t.Fatalf("thread %d: empty run after %d references", i, n)
				}
			}
			if got := pending[i][0]; got != want {
				t.Fatalf("thread %d, reference %d overall: run gives %+v, Next gives %+v", i, n, got, want)
			}
			pending[i] = pending[i][1:]
		}
	}
}
