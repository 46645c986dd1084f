package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"threadcluster/internal/sim"
)

// FuzzLoad feeds arbitrary bytes to the trace parser: it must reject them
// with an error or parse them, but never panic or over-allocate.
func FuzzLoad(f *testing.F) {
	// Seed corpus: a valid trace, plus truncations and corruptions of it.
	valid := func() []byte {
		var buf bytes.Buffer
		_ = randomTrace(rand.New(rand.NewSource(1)), 2, 8).Save(&buf)
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("TCTR"))
	f.Add([]byte{})
	corrupted := append([]byte{}, valid...)
	for i := 8; i < len(corrupted); i += 7 {
		corrupted[i] ^= 0xFF
	}
	f.Add(corrupted)
	// Every u32 field of a record at its bound, the Ops word included.
	atBounds := func() []byte {
		var buf bytes.Buffer
		ref := sim.MemRef{Addr: 1 << 40, Write: true, Insts: math.MaxUint32, BranchStall: math.MaxUint32, OtherStall: math.MaxUint32, Ops: 1<<31 - 1}
		_ = (&Trace{Threads: []ThreadTrace{{ID: 7, Partition: 1, Refs: []sim.MemRef{ref}}}}).Save(&buf)
		return buf.Bytes()
	}()
	f.Add(atBounds)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine
		}
		// Anything accepted must round-trip.
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("accepted trace failed to save: %v", err)
		}
		tr2, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-load of saved trace failed: %v", err)
		}
		if !tracesEqual(tr, tr2) {
			t.Fatal("accepted trace did not round-trip")
		}
	})
}
