package cache

import (
	"bytes"
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

// sliceBarrierSerial is the pre-batching reference drain: every lane's
// mailbox in canonical chip order, op by op. The batched SliceBarrier is
// differentially pinned against it below.
func (h *Hierarchy) sliceBarrierSerial() {
	for chip := range h.lanes {
		h.applyLane(&h.lanes[chip])
	}
}

// TestSliceBarrierBatchedVsSerial is the batched drain's differential
// oracle: identical multi-chip slice streams driven through two
// hierarchies, one draining each barrier through the batched sorted-run
// SliceBarrier and the other through the op-by-op reference
// sliceBarrierSerial, must stay byte-identical — every counter, the
// directory occupancy AND its peak high-water mark after every single
// barrier, and the full canonical SaveState encoding (cache contents,
// LRU stamps, presence table) at the end.
func TestSliceBarrierBatchedVsSerial(t *testing.T) {
	topos := []struct {
		name string
		topo topology.Topology
	}{
		{"open720", topology.OpenPower720()},
		{"power5-32way", topology.Power5_32Way()},
	}
	for _, tc := range topos {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 42} {
				cfg := SmallConfig()
				cfg.Coherence = CoherenceDirectory
				batched, err := NewHierarchy(tc.topo, topology.DefaultLatencies(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				serial, err := NewHierarchy(tc.topo, topology.DefaultLatencies(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				w := newDiffWorkload(tc.topo, 2*tc.topo.NumCPUs(), 96, seed)
				slices := 300
				perSlice := 48 * tc.topo.Chips
				if testing.Short() {
					slices = 60
				}
				byChip := make([][]laneStep, tc.topo.Chips)
				for s := 0; s < slices; s++ {
					for chip := range byChip {
						byChip[chip] = byChip[chip][:0]
					}
					for i := 0; i < perSlice; i++ {
						cpu, addr, write := w.step()
						chip := tc.topo.ChipOf(cpu)
						byChip[chip] = append(byChip[chip], laneStep{cpu, addr, write})
					}
					for chip := range byChip {
						lb, ls := batched.Lane(chip), serial.Lane(chip)
						for _, st := range byChip[chip] {
							rb := lb.Access(st.cpu, st.addr, st.write)
							rs := ls.Access(st.cpu, st.addr, st.write)
							if rb != rs {
								t.Fatalf("seed %d slice %d: access diverged before any barrier difference: %+v vs %+v", seed, s, rb, rs)
							}
						}
					}
					batched.SliceBarrier()
					serial.sliceBarrierSerial()
					compareDrainState(t, seed, s, batched, serial)
				}
				be, se := &snapbin.Enc{}, &snapbin.Enc{}
				if err := batched.SaveState(be); err != nil {
					t.Fatal(err)
				}
				if err := serial.SaveState(se); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(be.Bytes(), se.Bytes()) {
					t.Fatalf("seed %d: SaveState encodings diverge (%d vs %d bytes): the batched drain is not byte-identical to the serial reference",
						seed, len(be.Bytes()), len(se.Bytes()))
				}
			}
		})
	}
}

func compareDrainState(t *testing.T, seed int64, slice int, batched, serial *Hierarchy) {
	t.Helper()
	fail := func(what string, b, s interface{}) {
		t.Fatalf("seed %d slice %d: %s diverged: batched %v, serial %v", seed, slice, what, b, s)
	}
	if b, s := batched.DirectoryLines(), serial.DirectoryLines(); b != s {
		fail("DirectoryLines", b, s)
	}
	if b, s := batched.DirectoryPeakLines(), serial.DirectoryPeakLines(); b != s {
		fail("DirectoryPeakLines", b, s)
	}
	if b, s := batched.SourceCounts(), serial.SourceCounts(); b != s {
		fail("SourceCounts", b, s)
	}
	if b, s := batched.SourceCycles(), serial.SourceCycles(); b != s {
		fail("SourceCycles", b, s)
	}
	if b, s := batched.InvalidationsSent(), serial.InvalidationsSent(); b != s {
		fail("InvalidationsSent", b, s)
	}
	if b, s := batched.Upgrades(), serial.Upgrades(); b != s {
		fail("Upgrades", b, s)
	}
	if b, s := batched.Writebacks(), serial.Writebacks(); b != s {
		fail("Writebacks", b, s)
	}
	if b, s := batched.SnoopProbesAvoided(), serial.SnoopProbesAvoided(); b != s {
		fail("SnoopProbesAvoided", b, s)
	}
	if err := batched.CheckDirectory(); err != nil {
		t.Fatalf("seed %d slice %d: batched directory check: %v", seed, slice, err)
	}
	if err := serial.CheckDirectory(); err != nil {
		t.Fatalf("seed %d slice %d: serial directory check: %v", seed, slice, err)
	}
}
