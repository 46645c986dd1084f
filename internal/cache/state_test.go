package cache

import (
	"errors"
	"strings"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/topology"
)

// TestRestoreRefusesHostileSnapshots saves, in each coherence mode, a
// hierarchy that the access walk could never have produced and requires
// RestoreState to refuse it with snapbin.ErrCorrupt, naming the broken
// rule. Both rules are ones the walk relies on: inclusion (a remote
// invalidation reaches every L1 copy through its chip's L2) and "an L1
// Modified copy sits under a Modified L2 copy" (a write hit on a Modified
// L1 line rewrites neither cache). Before either check ran in broadcast
// mode, such a .snap restored there without complaint.
func TestRestoreRefusesHostileSnapshots(t *testing.T) {
	const line = memory.Addr(7 * memory.LineSize)
	topo, lat := topology.OpenPower720(), topology.DefaultLatencies()
	cases := []struct {
		name, rule string
		corrupt    func(h *Hierarchy)
	}{
		{"L1 line its L2 lacks", "(inclusion)", func(h *Hierarchy) {
			h.l2[0].Invalidate(line)
		}},
		{"L1 Modified over an Exclusive L2", "Modified in core", func(h *Hierarchy) {
			h.l1[0].SetState(line, Modified)
		}},
	}
	for _, mode := range []CoherenceMode{CoherenceDirectory, CoherenceBroadcast} {
		cfg := SmallConfig()
		cfg.Coherence = mode
		build := func(t *testing.T) *Hierarchy {
			h, err := NewHierarchy(topo, lat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				h := build(t)
				// A read fill from memory: Exclusive in CPU 0's L1 and in
				// chip 0's L2.
				if res := h.Access(0, line, false); res.Source != SrcMemory {
					t.Fatalf("setup access satisfied by %v, want memory", res.Source)
				}
				if err := build(t).RestoreState(snapbin.NewDec(stateBytes(t, h))); err != nil {
					t.Fatalf("the walk's own state is refused: %v", err)
				}
				tc.corrupt(h)
				err := build(t).RestoreState(snapbin.NewDec(stateBytes(t, h)))
				if !errors.Is(err, snapbin.ErrCorrupt) {
					t.Fatalf("hostile state restored with err %v, want ErrCorrupt", err)
				}
				if !strings.Contains(err.Error(), tc.rule) {
					t.Fatalf("refusal %q does not name the rule %q", err, tc.rule)
				}
			})
		}
	}
}

// TestStateSizeHintIsExact: the size SaveState hints before it writes is
// the length it writes, in both coherence modes, from an empty hierarchy
// through ones whose L2s cast out into victim L3s of small and promoted
// blocks.
func TestStateSizeHintIsExact(t *testing.T) {
	topo := topology.OpenPower720()
	for _, mode := range []CoherenceMode{CoherenceDirectory, CoherenceBroadcast} {
		cfg := SmallConfig()
		cfg.L3.Ways = 8 // above smallWays, so L3 sets start small and promote
		cfg.Coherence = mode
		h := mustHierarchy(t, topo, cfg)
		w := newDiffWorkload(topo, 8, 1024, 5)
		for op := 0; op <= 40_000; op++ {
			if op%5_000 == 0 {
				want := h.stateSize()
				if got := len(stateBytes(t, h)); got != want {
					t.Fatalf("%v after %d accesses: SaveState wrote %d bytes, hinted %d", mode, op, got, want)
				}
			}
			cpu, addr, write := w.step()
			h.Access(cpu, addr, write)
		}
		if h.l3[0].Occupancy() == 0 {
			t.Fatalf("%v: the accesses never reached chip 0's victim L3", mode)
		}
	}
}
