package cache

import (
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// TestSliceBarrierCanonicalOrder pins the order the barrier drains in —
// chip 0's mailbox first — through the one place the order is observable:
// applyFill's arbitration of same-slice fills of one line by two chips.
// Both chips fetch from memory believing nobody holds the line (the
// presence table is frozen during the slice); the barrier decides.
func TestSliceBarrierCanonicalOrder(t *testing.T) {
	cfg := Power5Config()
	cfg.Coherence = CoherenceDirectory
	h := mustHierarchy(t, topology.OpenPower720(), cfg)
	const cpu0, cpu1 = topology.CPUID(0), topology.CPUID(4) // chip 0 core 0, chip 1 core 2
	written, read := memory.Addr(0x10000), memory.Addr(0x20000)

	for _, tc := range []struct {
		addr  memory.Addr
		write bool
	}{{written, true}, {read, false}} {
		for chip, cpu := range []topology.CPUID{cpu0, cpu1} {
			if r := h.Lane(chip).Access(cpu, tc.addr, tc.write); r.Source != SrcMemory {
				t.Fatalf("chip %d, line %#x: %+v, want a memory fill (line untracked all slice)", chip, uint64(tc.addr), r)
			}
		}
	}
	h.SliceBarrier()

	copies := func(addr memory.Addr) [4]State {
		line := memory.LineOf(addr)
		return [4]State{h.L1(0).Peek(line), h.L2(0).Peek(line), h.L1(2).Peek(line), h.L2(1).Peek(line)}
	}
	// The later chip's write is the one that sticks.
	if got, want := copies(written), [4]State{Invalid, Invalid, Modified, Modified}; got != want {
		t.Errorf("two writes: {chip0 L1, L2, chip1 L1, L2} = %v, want %v", got, want)
	}
	// Two reads settle as back-to-back reads would: everyone Shared.
	if got, want := copies(read), [4]State{Shared, Shared, Shared, Shared}; got != want {
		t.Errorf("two reads: {chip0 L1, L2, chip1 L1, L2} = %v, want %v", got, want)
	}
	if err := h.CheckDirectory(); err != nil {
		t.Error(err)
	}
	if lines, peak := h.DirectoryLines(), h.DirectoryPeakLines(); lines != 2 || peak < lines {
		t.Errorf("directory tracks %d lines (peak %d), want 2 with peak >= 2", lines, peak)
	}
}
