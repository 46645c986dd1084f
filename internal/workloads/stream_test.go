package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/sim"
)

// streamDigest hashes the first n references of a spec, every MemRef field
// included, taking the threads round-robin one reference at a time so the
// order in which workers mutate their shared B-tree is part of the hash.
func streamDigest(spec *Spec, n int) string {
	h := sha256.New()
	var buf [8*5 + 1]byte
	for i := 0; i < n; i++ {
		ref := spec.Threads[i%len(spec.Threads)].Gen.Next()
		binary.LittleEndian.PutUint64(buf[0:], uint64(ref.Addr))
		binary.LittleEndian.PutUint64(buf[8:], ref.Insts)
		binary.LittleEndian.PutUint64(buf[16:], ref.BranchStall)
		binary.LittleEndian.PutUint64(buf[24:], ref.OtherStall)
		binary.LittleEndian.PutUint64(buf[32:], ref.Ops)
		buf[40] = 0
		if ref.Write {
			buf[40] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBTreeGeneratorStreamsGolden pins the B-tree workloads' reference
// streams to SHA-256 values recorded at the commit before their generators
// were made allocation-free (append-style BTree, reused transaction
// buffers, inline node arrays). A host-time optimisation must not move an
// RNG draw or an address; do not regenerate these for one.
func TestBTreeGeneratorStreamsGolden(t *testing.T) {
	const refs = 200_000
	cases := []struct {
		workload string
		seed     int64
		want     string
	}{
		{"specjbb", 1, "013a6e4e39d957ce0c098516163b3169c8ce468a59b03d4e6bdbae0a2d2e9fe3"},
		{"specjbb", 20070321, "1bbba81e0510c9722fb2b99ac5fb16325811b91a44df163e3c3a19c243480a16"},
		{"rubis", 1, "d77dfa4d47ef70de54b3a7cca52b30e4d8b05c94950707523f18e00665363e8b"},
		{"rubis", 20070321, "8441a75143bc855e01af1cf933081b593a4b58cfcf235f3d7a62ae82dfeddef6"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/seed=%d", tc.workload, tc.seed), func(t *testing.T) {
			var spec *Spec
			var err error
			switch tc.workload {
			case "specjbb":
				cfg := DefaultJBBConfig()
				cfg.Seed = tc.seed
				spec, err = NewJBB(memory.NewDefaultArena(), cfg)
			case "rubis":
				cfg := DefaultRubisConfig()
				cfg.Seed = tc.seed
				spec, err = NewRubis(memory.NewDefaultArena(), cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := streamDigest(spec, refs); got != tc.want {
				t.Errorf("stream digest = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestTraceGeneratorNeverAliasesARefill: a refill that reuses one backing
// buffer (as the B-tree workers do) must only ever be called once the
// previous fill is fully consumed, and every reference must come out as the
// refill wrote it.
func TestTraceGeneratorNeverAliasesARefill(t *testing.T) {
	var buf []sim.MemRef
	fill, served := 0, 0
	g := &traceGenerator{}
	g.refill = func() []sim.MemRef {
		if served != len(buf) {
			t.Fatalf("refill %d called with %d of %d references consumed", fill, served, len(buf))
		}
		fill++
		served = 0
		buf = buf[:0]
		// Varying lengths, including an empty fill, over the same array.
		for i := 0; i < fill%4; i++ {
			buf = append(buf, sim.MemRef{Addr: memory.Addr(fill), Insts: uint64(i)})
		}
		return buf
	}
	for i := 0; i < 1000; i++ {
		ref := g.Next()
		if ref.Addr != memory.Addr(fill) || ref.Insts != uint64(served) {
			t.Fatalf("ref %d = {Addr %d, Insts %d}, want {%d, %d}: a refilled buffer was observed half-consumed",
				i, ref.Addr, ref.Insts, fill, served)
		}
		served++
	}
}
