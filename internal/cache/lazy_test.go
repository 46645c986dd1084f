package cache

import (
	"bytes"
	"sync"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/snapbin"
	"threadcluster/internal/topology"
)

// laneStep is one recorded lane access of a slice, grouped by chip so
// both hierarchies replay identical per-chip streams (the order the
// chip-parallel engine produces them in).
type laneStep struct {
	cpu   topology.CPUID
	addr  memory.Addr
	write bool
}

// compareDrainState requires two hierarchies driven with the same stream
// indistinguishable at a barrier boundary: every counter, the directory's
// occupancy and peak, and its ground-truth check on both sides.
func compareDrainState(t *testing.T, seed int64, slice int, lazy, eager *Hierarchy) {
	t.Helper()
	fail := func(what string, l, e interface{}) {
		t.Fatalf("seed %d slice %d: %s diverged: lazy %v, eager %v", seed, slice, what, l, e)
	}
	if l, e := lazy.DirectoryLines(), eager.DirectoryLines(); l != e {
		fail("DirectoryLines", l, e)
	}
	if l, e := lazy.DirectoryPeakLines(), eager.DirectoryPeakLines(); l != e {
		fail("DirectoryPeakLines", l, e)
	}
	if l, e := lazy.SourceCounts(), eager.SourceCounts(); l != e {
		fail("SourceCounts", l, e)
	}
	if l, e := lazy.SourceCycles(), eager.SourceCycles(); l != e {
		fail("SourceCycles", l, e)
	}
	if l, e := lazy.InvalidationsSent(), eager.InvalidationsSent(); l != e {
		fail("InvalidationsSent", l, e)
	}
	if l, e := lazy.Upgrades(), eager.Upgrades(); l != e {
		fail("Upgrades", l, e)
	}
	if l, e := lazy.Writebacks(), eager.Writebacks(); l != e {
		fail("Writebacks", l, e)
	}
	if l, e := lazy.SnoopProbesAvoided(), eager.SnoopProbesAvoided(); l != e {
		fail("SnoopProbesAvoided", l, e)
	}
	if err := lazy.CheckDirectory(); err != nil {
		t.Fatalf("seed %d slice %d: lazy directory check: %v", seed, slice, err)
	}
	if err := eager.CheckDirectory(); err != nil {
		t.Fatalf("seed %d slice %d: eager directory check: %v", seed, slice, err)
	}
}

// stateBytes is the hierarchy's canonical SaveState encoding.
func stateBytes(t *testing.T, h *Hierarchy) []byte {
	t.Helper()
	e := &snapbin.Enc{}
	if err := h.SaveState(e); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// denseCache is freshCache in the dense layout whatever the cache's role:
// the eager hierarchies below hold dense L3s, the oracle of the sparse
// ones their lazy twins build.
func denseCache(t testing.TB, cfg Config, _ bool) *SetAssoc { return freshCache(t, cfg, false) }

// TestLazyHierarchyEqualsEager replays the three-way differential's
// access streams through a hierarchy whose caches build at their first
// Insert and one whose caches were all built densely at construction, in
// both coherence modes, and on SmallConfig and on wideL3Config, whose
// sparse L3 sets start small and are promoted, and requires them
// indistinguishable after every single access: the result, every
// counter, the directory's occupancy and peak, its ground-truth check,
// and every cache's snapshot bytes. At the end the lazy state is restored
// into a third hierarchy, which must build exactly the caches the
// snapshot has lines for.
func TestLazyHierarchyEqualsEager(t *testing.T) {
	cases := []struct {
		name string
		topo topology.Topology
		cfg  HierarchyConfig
		ops  int
	}{
		{"open720", topology.OpenPower720(), SmallConfig(), 6000},
		{"32way", topology.Power5_32Way(), SmallConfig(), 3000},
		{"open720-wideL3", topology.OpenPower720(), wideL3Config(), 6000},
	}
	for _, tc := range cases {
		for _, mode := range []CoherenceMode{CoherenceDirectory, CoherenceBroadcast} {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Coherence = mode
				lat := topology.DefaultLatencies()
				lazy := hierarchyOf(t, shellCache, tc.topo, lat, cfg)
				eager := hierarchyOf(t, denseCache, tc.topo, lat, cfg)
				w := newDiffWorkload(tc.topo, 2*tc.topo.NumCPUs(), 96, 42)
				ops := tc.ops
				if testing.Short() {
					ops /= 5
				}
				for i := 0; i < ops; i++ {
					cpu, addr, write := w.step()
					if l, e := lazy.Access(cpu, addr, write), eager.Access(cpu, addr, write); l != e {
						t.Fatalf("op %d: cpu %d line %#x write=%v: lazy %+v, eager %+v", i, cpu, uint64(addr), write, l, e)
					}
					compareDrainState(t, 42, i, lazy, eager)
					sameCaches(t, eager, lazy)
				}
				if len(backings(lazy)) == 0 {
					t.Fatal("the stream built no cache")
				}
				saved := stateBytes(t, lazy)
				if !bytes.Equal(saved, stateBytes(t, eager)) {
					t.Fatal("SaveState encodings diverge")
				}

				restored, err := NewHierarchy(tc.topo, lat, cfg)
				if err != nil {
					t.Fatal(err)
				}
				d := snapbin.NewDec(saved)
				if err := restored.RestoreState(d); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(stateBytes(t, restored), saved) {
					t.Fatal("restored hierarchy re-encodes differently")
				}
				l1, l2, l3 := restored.caches()
				for lvl, level := range [][]*SetAssoc{l1, l2, l3} {
					for i, c := range level {
						if built, lines := c.Backing() != nil, c.Occupancy() != 0; built != lines {
							t.Errorf("restored L%d[%d]: built=%v with %d lines", lvl+1, i, built, c.Occupancy())
						}
					}
				}
				for _, h := range []*Hierarchy{lazy, eager, restored} {
					h.FlushAll()
					if len(backings(h)) != 0 || h.DirectoryLines() != 0 {
						t.Fatal("FlushAll left slabs or directory lines behind")
					}
					if err := h.CheckDirectory(); err != nil {
						t.Fatal(err)
					}
					h.Release()
				}
			})
		}
	}
}

// TestLazyBuildInsideLanes: under the chip-parallel engine the first
// Insert into a chip's caches happens on that chip's lane goroutine, so
// several lanes build (and draw on the slab pool) at once. Slice after
// slice of one goroutine per lane on a lazy hierarchy must equal the same
// per-chip streams driven serially through an eagerly built dense one,
// and a released hierarchy's slabs go round again for the next seed. On
// wideL3Config the lanes also promote their L3 sets. For the race
// detector.
func TestLazyBuildInsideLanes(t *testing.T) {
	topo := topology.Power5_32Way()
	for _, base := range []HierarchyConfig{SmallConfig(), wideL3Config()} {
		lazyBuildInsideLanes(t, topo, base)
	}
}

func lazyBuildInsideLanes(t *testing.T, topo topology.Topology, cfg HierarchyConfig) {
	cfg.Coherence = CoherenceDirectory
	for _, seed := range []int64{1, 42, 7} {
		lazy := hierarchyOf(t, shellCache, topo, topology.DefaultLatencies(), cfg)
		eager := hierarchyOf(t, denseCache, topo, topology.DefaultLatencies(), cfg)
		w := newDiffWorkload(topo, 2*topo.NumCPUs(), 96, seed)
		slices := 120
		if testing.Short() {
			slices = 30
		}
		byChip := make([][]laneStep, topo.Chips)
		got := make([][]AccessResult, topo.Chips)
		for s := 0; s < slices; s++ {
			for chip := range byChip {
				byChip[chip], got[chip] = byChip[chip][:0], got[chip][:0]
			}
			for i := 0; i < 48*topo.Chips; i++ {
				cpu, addr, write := w.step()
				chip := topo.ChipOf(cpu)
				byChip[chip] = append(byChip[chip], laneStep{cpu, addr, write})
			}
			var wg sync.WaitGroup
			for chip := range byChip {
				wg.Add(1)
				go func(chip int) {
					defer wg.Done()
					l := lazy.Lane(chip)
					for _, st := range byChip[chip] {
						got[chip] = append(got[chip], l.Access(st.cpu, st.addr, st.write))
					}
				}(chip)
			}
			wg.Wait()
			for chip := range byChip {
				l := eager.Lane(chip)
				for i, st := range byChip[chip] {
					if want := l.Access(st.cpu, st.addr, st.write); got[chip][i] != want {
						t.Fatalf("L3 %+v seed %d slice %d chip %d op %d: lazy %+v, eager %+v", cfg.L3, seed, s, chip, i, got[chip][i], want)
					}
				}
			}
			lazy.SliceBarrier()
			eager.SliceBarrier()
			compareDrainState(t, seed, s, lazy, eager)
		}
		if !bytes.Equal(stateBytes(t, lazy), stateBytes(t, eager)) {
			t.Fatalf("L3 %+v seed %d: SaveState encodings diverge", cfg.L3, seed)
		}
		lazy.Release()
		eager.Release()
	}
}
