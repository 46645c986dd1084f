package cache

import (
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// FuzzHierarchyAccess decodes arbitrary bytes into a cache operation
// sequence — 3 bytes per access: CPU selector, line selector, flag byte
// (bit 0: write) — and replays it through the pre-merge broadcast
// reference walk and the unified walk in broadcast and directory mode, in
// lockstep. Whatever the sequence, none of them may panic, every
// per-access result must match, the coherence and attribution counters
// and the cache contents must stay identical, and the directory must
// agree with a ground-truth scan of cache contents.
func FuzzHierarchyAccess(f *testing.F) {
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{1, 0, 0, 5, 0, 1, 1, 0, 0})
	// A write ping-pong across chips followed by reads.
	f.Add([]byte{0, 9, 1, 4, 9, 1, 0, 9, 0, 4, 9, 0, 2, 9, 1})
	// Dense line reuse to force evictions and victim-L3 spills.
	seed := make([]byte, 0, 96)
	for i := 0; i < 32; i++ {
		seed = append(seed, byte(i), byte(i*7), byte(i%2))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		topo := topology.OpenPower720()
		ref, bc, dir := triplet(t, topo, topology.DefaultLatencies(), SmallConfig())
		ncpu := topo.NumCPUs()
		for i := 0; i+3 <= len(data); i += 3 {
			cpu := topology.CPUID(int(data[i]) % ncpu)
			addr := memory.Addr(uint64(data[i+1]) * memory.LineSize)
			write := data[i+2]&1 != 0
			rr := ref.Access(cpu, addr, write)
			rb := bc.Access(cpu, addr, write)
			rd := dir.Access(cpu, addr, write)
			if rr != rb || rr != rd {
				t.Fatalf("op %d: cpu %d line %#x write=%v:\nreference %+v\nbroadcast %+v\ndirectory %+v",
					i/3, cpu, uint64(addr), write, rr, rb, rd)
			}
		}
		for _, h := range []coherent{bc, dir} {
			compareCounters(t, len(data)/3, ref, h)
			sameCaches(t, ref, h)
		}
		if err := dir.CheckDirectory(); err != nil {
			t.Fatal(err)
		}
	})
}
