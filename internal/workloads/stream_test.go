package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/sim"
	"threadcluster/internal/sim/simtest"
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

var updateStreamGolden = flag.Bool("update-stream-golden", false,
	"rewrite testdata/btree_streams.sha256 from the current implementation (a deliberate stream change, never a refactor)")

const streamGoldenPath = "testdata/btree_streams.sha256"

// TestBTreeGeneratorStreamsGolden pins the B-tree workloads' reference
// streams to the SHA-256 values in testdata/btree_streams.sha256, one
// "digest  workload/seed=N" line per case. A host-time optimisation must
// not move an RNG draw or an address; regenerate (make goldens) only for
// a change that is meant to move the streams, as the generator epoch was.
func TestBTreeGeneratorStreamsGolden(t *testing.T) {
	const refs = 200_000
	type streamCase struct {
		workload string
		seed     int64
	}
	cases := []streamCase{{"specjbb", 1}, {"specjbb", 20070321}, {"rubis", 1}, {"rubis", 20070321}}
	digest := func(t *testing.T, tc streamCase) string {
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
		return streamDigest(spec, refs)
	}
	name := func(tc streamCase) string { return fmt.Sprintf("%s/seed=%d", tc.workload, tc.seed) }
	if *updateStreamGolden {
		var sb strings.Builder
		for _, tc := range cases {
			fmt.Fprintf(&sb, "%s  %s\n", digest(t, tc), name(tc))
		}
		if err := os.MkdirAll(filepath.Dir(streamGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-stream-golden): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, key, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[key] = sum
	}
	if len(want) != len(cases) {
		t.Errorf("golden pins %d streams, test has %d cases", len(want), len(cases))
	}
	for _, tc := range cases {
		t.Run(name(tc), func(t *testing.T) {
			if got := digest(t, tc); got != want[name(tc)] {
				t.Errorf("stream digest = %s, want %s", got, want[name(tc)])
			}
		})
	}
}

// TestRunsMatchNext: every workload's generators, consumed through
// NextRun in runs that slice-sized turns cut anywhere, yield exactly
// their Next stream. The B-tree workloads hand out the rest of a
// transaction per run and refill only when a turn needs a reference past
// it, so their threads mutate the shared tree in Next's order.
func TestRunsMatchNext(t *testing.T) {
	const refs = 200_000
	builds := map[string]func(*memory.Arena) (*Spec, error){
		"microbenchmark": func(a *memory.Arena) (*Spec, error) { return NewSynthetic(a, DefaultSyntheticConfig()) },
		"phase-change": func(a *memory.Arena) (*Spec, error) {
			return NewSyntheticWithPhaseChange(a, DefaultSyntheticConfig(), 5_000)
		},
		"volano":  func(a *memory.Arena) (*Spec, error) { return NewVolano(a, DefaultVolanoConfig()) },
		"specjbb": func(a *memory.Arena) (*Spec, error) { return NewJBB(a, DefaultJBBConfig()) },
		"rubis":   func(a *memory.Arena) (*Spec, error) { return NewRubis(a, DefaultRubisConfig()) },
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			var gens [2][]sim.Generator
			for i := range gens {
				spec, err := build(memory.NewDefaultArena())
				if err != nil {
					t.Fatal(err)
				}
				for _, th := range spec.Threads {
					gens[i] = append(gens[i], th.Gen)
				}
			}
			simtest.RunsMatchNext(t, gens[0], gens[1], refs, 20070321)
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
