package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/sim"
	"threadcluster/internal/topology"
	"threadcluster/internal/workloads"
)

// TestDigestIsTheEncodingsHash: over the coverage corpus, the digest
// Digest streams is the SHA-256 of the bytes Encode materialises, Encode
// fills its one buffer exactly, and a decoded snapshot encodes and
// digests as the original does.
func TestDigestIsTheEncodingsHash(t *testing.T) {
	ctx := context.Background()
	for _, c := range snapshotCorpus() {
		m, _ := c.run(t)
		snap, err := m.Snapshot(ctx)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		enc := snap.Encode()
		if len(enc) != cap(enc) {
			t.Errorf("%s: Encode returned %d bytes in a buffer of %d", c.name, len(enc), cap(enc))
		}
		sum := sha256.Sum256(enc)
		if got, want := snap.Digest(), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: Digest %s, sha256 of Encode %s", c.name, got, want)
		}
		dec, err := sim.DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(dec.Encode(), enc) || dec.Digest() != snap.Digest() {
			t.Errorf("%s: the decoded snapshot encodes or digests differently", c.name)
		}
	}
}

// TestSnapshotAllocatesAboutItsSize: taking and digesting a snapshot of
// the 32-way volano machine allocates about one copy of its encoding —
// each section written once into a buffer of its size, the digest
// streamed — not the several copies doubling buffers and a materialised
// encoding cost.
func TestSnapshotAllocatesAboutItsSize(t *testing.T) {
	m := warmVolano32(t, 100)
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap, err := m.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_ = snap.Digest()
	runtime.ReadMemStats(&after)
	size := len(snap.Encode())
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.25*float64(size) {
		t.Fatalf("Snapshot + Digest allocated %d bytes for a %d-byte encoding (%.2fx, want <= 1.25x)",
			got, size, float64(got)/float64(size))
	}
}

// BenchmarkMachineSnapshot takes and digests a snapshot of the warmed
// 32-way volano machine. B/op is what one capture costs the heap, next
// to the encoding's own size (enc-B).
func BenchmarkMachineSnapshot(b *testing.B) {
	m := warmVolano32(b, 200)
	ctx := context.Background()
	var snap *sim.MachineSnapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if snap, err = m.Snapshot(ctx); err != nil {
			b.Fatal(err)
		}
		_ = snap.Digest()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(snap.Encode())), "enc-B")
}

// warmVolano32 builds volano on the 32-way Power5 and runs it rounds
// rounds, so its caches hold what a warmed run's snapshot carries.
func warmVolano32(tb testing.TB, rounds int) *sim.Machine {
	tb.Helper()
	spec, err := workloads.NewVolano(memory.NewDefaultArena(), workloads.DefaultVolanoConfig())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Topo = topology.Power5_32Way()
	cfg.QuantumCycles = 20_000
	m, err := sim.NewMachine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(m.Close)
	if err := spec.Install(m); err != nil {
		tb.Fatal(err)
	}
	if err := m.RunRoundsCtx(context.Background(), rounds); err != nil {
		tb.Fatal(err)
	}
	return m
}
