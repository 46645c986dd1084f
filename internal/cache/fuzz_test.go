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
// lockstep, and then a fourth time through a directory hierarchy built on
// the slabs the second and third just released (and every earlier input
// dirtied). Whatever the sequence, none of them may panic, every
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
		decode := func(i int) (topology.CPUID, memory.Addr, bool) {
			return topology.CPUID(int(data[i]) % ncpu), memory.Addr(uint64(data[i+1]) * memory.LineSize), data[i+2]&1 != 0
		}
		var want []AccessResult
		for i := 0; i+3 <= len(data); i += 3 {
			cpu, addr, write := decode(i)
			rr := ref.Access(cpu, addr, write)
			want = append(want, rr)
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

		bc.Release()
		dir.Release()
		cfg := SmallConfig()
		cfg.Coherence = CoherenceDirectory
		rec, err := NewHierarchy(topo, topology.DefaultLatencies(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+3 <= len(data); i += 3 {
			cpu, addr, write := decode(i)
			if got := rec.Access(cpu, addr, write); got != want[i/3] {
				t.Fatalf("op %d on recycled slabs: cpu %d line %#x write=%v:\nreference %+v\nrecycled  %+v",
					i/3, cpu, uint64(addr), write, want[i/3], got)
			}
		}
		compareCounters(t, len(data)/3, ref, rec)
		sameCaches(t, ref, rec)
		if err := rec.CheckDirectory(); err != nil {
			t.Fatal(err)
		}
		rec.Release()
	})
}
