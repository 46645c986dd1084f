package cache

import (
	"math/rand"
	"testing"

	"threadcluster/internal/memory"
	"threadcluster/internal/topology"
)

// refModel is an intentionally naive re-implementation of the coherence
// *classification* semantics (ignoring capacity): it tracks, per chip,
// the set of lines the chip could possibly hold, and which chips hold a
// line at all, with writes invalidating other holders. The real hierarchy
// must never report a source that is impossible under the reference —
// differential testing for the coherence logic, independent of LRU
// details.
type refModel struct {
	topo topology.Topology
	// holder[line] = set of chips that may hold the line.
	holder map[memory.Addr]map[int]bool
}

func newRefModel(topo topology.Topology) *refModel {
	return &refModel{topo: topo, holder: make(map[memory.Addr]map[int]bool)}
}

// access returns the set of legal sources for the access, then updates
// the model.
func (r *refModel) access(cpu topology.CPUID, line memory.Addr, write bool) map[Source]bool {
	chip := r.topo.ChipOf(cpu)
	h := r.holder[line]
	legal := make(map[Source]bool)
	if h != nil && h[chip] {
		// Local copies may exist at any level (or may have been evicted,
		// so memory and remote sources stay legal if others hold it).
		legal[SrcL1] = true
		legal[SrcL2] = true
		legal[SrcL3] = true
	}
	othersHold := false
	if h != nil {
		for c := range h {
			if c != chip {
				othersHold = true
			}
		}
	}
	if othersHold {
		legal[SrcRemoteL2] = true
		legal[SrcRemoteL3] = true
	}
	// Memory is always reachable (local copies can be evicted silently).
	legal[SrcMemory] = true

	// Update: accessing chip now holds the line.
	if h == nil {
		h = make(map[int]bool)
		r.holder[line] = h
	}
	if write {
		for c := range h {
			delete(h, c)
		}
	}
	h[chip] = true
	return legal
}

// triplet builds the pre-merge reference walk plus a broadcast and a
// directory hierarchy over otherwise identical configuration.
func triplet(t testing.TB, topo topology.Topology, lat topology.Latencies, cfg HierarchyConfig) (ref *broadcastRef, bc, dir *Hierarchy) {
	t.Helper()
	cfg.Coherence = CoherenceBroadcast
	bc, err := NewHierarchy(topo, lat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Coherence = CoherenceDirectory
	dir, err = NewHierarchy(topo, lat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Coherence() != CoherenceDirectory {
		t.Fatalf("directory mode not effective on %v", topo)
	}
	return newBroadcastRef(t, topo, lat, cfg), bc, dir
}

// compareCounters fails the test when any observable coherence or
// attribution counter of got diverges from the reference walk's.
func compareCounters(t *testing.T, op int, ref, got coherent) {
	t.Helper()
	if ref.SourceCounts() != got.SourceCounts() {
		t.Fatalf("op %d: SourceCounts diverged:\n%s %v\n%s %v", op, ref.name(), ref.SourceCounts(), got.name(), got.SourceCounts())
	}
	if ref.SourceCycles() != got.SourceCycles() {
		t.Fatalf("op %d: SourceCycles diverged:\n%s %v\n%s %v", op, ref.name(), ref.SourceCycles(), got.name(), got.SourceCycles())
	}
	if r, g := ref.InvalidationsSent(), got.InvalidationsSent(); r != g {
		t.Fatalf("op %d: InvalidationsSent: %s %d, %s %d", op, ref.name(), r, got.name(), g)
	}
	if r, g := ref.Upgrades(), got.Upgrades(); r != g {
		t.Fatalf("op %d: Upgrades: %s %d, %s %d", op, ref.name(), r, got.name(), g)
	}
	if r, g := ref.Writebacks(), got.Writebacks(); r != g {
		t.Fatalf("op %d: Writebacks: %s %d, %s %d", op, ref.name(), r, got.name(), g)
	}
}

// wide72 is a 9x8 machine: 72 cores, past the 64-core width the L1 sharer
// masks used to cap the directory at, with wide chips so the direct L1
// probes cover more than the POWER5's two cores.
var wide72 = topology.Topology{Chips: 9, CoresPerChip: 8, ContextsPerCore: 1}

// diffWorkload models software threads with private and shared working
// sets that occasionally migrate between CPUs — the multi-chip
// read/write/migration sequences the directory must survive. One instance
// drives both hierarchies so their access streams are identical.
type diffWorkload struct {
	rng     *rand.Rand
	topo    topology.Topology
	homes   []topology.CPUID // current CPU of each simulated thread
	private []int            // disjoint line-range base per thread
	lines   int              // lines per private range / in the shared range
}

func newDiffWorkload(topo topology.Topology, threads, lines int, seed int64) *diffWorkload {
	w := &diffWorkload{
		rng:   rand.New(rand.NewSource(seed)),
		topo:  topo,
		lines: lines,
	}
	for i := 0; i < threads; i++ {
		w.homes = append(w.homes, topology.CPUID(w.rng.Intn(topo.NumCPUs())))
		w.private = append(w.private, (i+1)*lines)
	}
	return w
}

// step produces the next access: which CPU issues it, the line, and
// whether it is a write. 2% of steps migrate a thread to a random CPU
// (often on another chip) instead of accessing memory.
func (w *diffWorkload) step() (cpu topology.CPUID, addr memory.Addr, write bool) {
	for {
		th := w.rng.Intn(len(w.homes))
		if w.rng.Intn(50) == 0 {
			w.homes[th] = topology.CPUID(w.rng.Intn(w.topo.NumCPUs()))
			continue
		}
		base := 0 // shared range
		if w.rng.Intn(2) == 0 {
			base = w.private[th]
		}
		line := base + w.rng.Intn(w.lines)
		return w.homes[th], memory.Addr(uint64(line) * memory.LineSize), w.rng.Intn(3) == 0
	}
}

// TestBroadcastDirectoryEquivalence is the three-way differential
// harness of the access walk: identical randomized multi-chip
// read/write/migration sequences replayed through the pre-merge broadcast
// reference (broadcastref_test.go) and through the unified walk in
// broadcast and in directory mode must yield byte-identical per-access
// results (source, latency, L1-miss flag), byte-identical attribution and
// coherence counters, and bit-identical cache contents at the end.
func TestBroadcastDirectoryEquivalence(t *testing.T) {
	cases := []struct {
		name string
		topo topology.Topology
		lat  topology.Latencies
		cfg  HierarchyConfig
		numa bool
		ops  int
	}{
		{name: "open720/small", topo: topology.OpenPower720(), lat: topology.DefaultLatencies(), cfg: SmallConfig(), ops: 150_000},
		{name: "open720/power5", topo: topology.OpenPower720(), lat: topology.DefaultLatencies(), cfg: Power5Config(), ops: 60_000},
		{name: "32way/small", topo: topology.Power5_32Way(), lat: topology.DefaultLatencies(), cfg: SmallConfig(), ops: 150_000},
		{name: "32way/power5", topo: topology.Power5_32Way(), lat: topology.DefaultLatencies(), cfg: Power5Config(), ops: 60_000},
		{name: "niagara/small", topo: topology.NiagaraLike(), lat: topology.DefaultLatencies(), cfg: SmallConfig(), ops: 60_000},
		{name: "open720/numa", topo: topology.OpenPower720(), lat: topology.NUMALatencies(), cfg: SmallConfig(), numa: true, ops: 100_000},
		{name: "9x8/small", topo: wide72, lat: topology.DefaultLatencies(), cfg: SmallConfig(), ops: 60_000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 42, 1234} {
				ref, bc, dir := triplet(t, tc.topo, tc.lat, tc.cfg)
				if tc.numa {
					nodes := memory.InterleavedNodes{N: tc.topo.Chips, Granularity: 4096}
					for _, h := range []coherent{ref, bc, dir} {
						h.SetNUMA(nodes)
					}
				}
				w := newDiffWorkload(tc.topo, 2*tc.topo.NumCPUs(), 96, seed)
				ops := tc.ops
				if testing.Short() {
					ops /= 10
				}
				for i := 0; i < ops; i++ {
					cpu, addr, write := w.step()
					rr := ref.Access(cpu, addr, write)
					rb := bc.Access(cpu, addr, write)
					rd := dir.Access(cpu, addr, write)
					if rr != rb || rr != rd {
						t.Fatalf("seed %d op %d: cpu %d line %#x write=%v:\nreference %+v\nbroadcast %+v\ndirectory %+v",
							seed, i, cpu, uint64(addr), write, rr, rb, rd)
					}
					if i%10_000 == 0 {
						compareCounters(t, i, ref, bc)
						compareCounters(t, i, ref, dir)
					}
				}
				for _, h := range []coherent{bc, dir} {
					compareCounters(t, ops, ref, h)
					sameCaches(t, ref, h)
				}
				if err := dir.CheckDirectory(); err != nil {
					t.Fatalf("seed %d: directory out of sync after run: %v", seed, err)
				}
				if dir.SnoopProbesAvoided() == 0 {
					t.Errorf("seed %d: directory avoided no probes; workload never exercised coherence", seed)
				}
			}
		})
	}
}

// TestDirectoryMatchesScanAfterEveryOp is the per-operation invariant: the
// directory must agree with a ground-truth scan of all cache contents
// after every single access, including evictions, spills to the victim L3
// and inclusion purges.
func TestDirectoryMatchesScanAfterEveryOp(t *testing.T) {
	for _, topo := range []topology.Topology{topology.Power5_32Way(), wide72} {
		h, err := NewHierarchy(topo, topology.DefaultLatencies(), SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if h.Coherence() != CoherenceDirectory {
			t.Fatalf("directory mode not effective on %v", topo)
		}
		w := newDiffWorkload(topo, 16, 64, 7)
		ops := 4000
		if testing.Short() {
			ops = 800
		}
		for i := 0; i < ops; i++ {
			cpu, addr, write := w.step()
			h.Access(cpu, addr, write)
			if err := h.CheckDirectory(); err != nil {
				t.Fatalf("%v op %d (cpu %d line %#x write=%v): %v", topo, i, cpu, uint64(addr), write, err)
			}
		}
		if h.DirectoryLines() == 0 || h.DirectoryPeakLines() < h.DirectoryLines() {
			t.Errorf("%v: implausible occupancy: lines=%d peak=%d", topo, h.DirectoryLines(), h.DirectoryPeakLines())
		}
		h.FlushAll()
		if h.DirectoryLines() != 0 {
			t.Errorf("%v: FlushAll left %d directory lines", topo, h.DirectoryLines())
		}
		if err := h.CheckDirectory(); err != nil {
			t.Errorf("%v: after FlushAll: %v", topo, err)
		}
	}
}

// TestBroadcastFallbackOnWideMachines: machines beyond the 64-chip bitmask
// width silently run the broadcast protocol.
func TestBroadcastFallbackOnWideMachines(t *testing.T) {
	wide := topology.Topology{Chips: 65, CoresPerChip: 1, ContextsPerCore: 1}
	h, err := NewHierarchy(wide, topology.DefaultLatencies(), SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h.Coherence() != CoherenceBroadcast {
		t.Errorf("mode = %v on a 65-chip machine, want broadcast fallback", h.Coherence())
	}
	h.Access(0, 0, true)
	if h.DirectoryLines() != 0 || h.SnoopProbesAvoided() != 0 {
		t.Error("broadcast fallback should not track directory state")
	}
}

func TestHierarchyDifferentialAgainstReference(t *testing.T) {
	topo := topology.OpenPower720()
	h, err := NewHierarchy(topo, topology.DefaultLatencies(), SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(topo)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200_000; i++ {
		cpu := topology.CPUID(rng.Intn(topo.NumCPUs()))
		line := memory.Addr(uint64(rng.Intn(512)) * memory.LineSize)
		write := rng.Intn(3) == 0
		legal := ref.access(cpu, line, write)
		res := h.Access(cpu, line, write)
		if !legal[res.Source] {
			t.Fatalf("op %d: cpu %d line %#x write=%v: source %v impossible (legal: %v)",
				i, cpu, uint64(line), write, res.Source, legal)
		}
	}
}

// The sharpest corollary: after a write by chip A, no other chip can
// satisfy a read remotely until someone re-shares — i.e., a read by chip A
// immediately after its own write can never be remote.
func TestNoRemoteAfterOwnWrite(t *testing.T) {
	topo := topology.OpenPower720()
	h, err := NewHierarchy(topo, topology.DefaultLatencies(), SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50_000; i++ {
		cpu := topology.CPUID(rng.Intn(topo.NumCPUs()))
		line := memory.Addr(uint64(rng.Intn(256)) * memory.LineSize)
		h.Access(cpu, line, true)
		res := h.Access(cpu, line, false)
		if res.Source.Remote() {
			t.Fatalf("op %d: read after own write went remote (%v)", i, res.Source)
		}
		// Noise traffic from other CPUs.
		for j := 0; j < 3; j++ {
			h.Access(topology.CPUID(rng.Intn(topo.NumCPUs())),
				memory.Addr(uint64(rng.Intn(256))*memory.LineSize), rng.Intn(2) == 0)
		}
	}
}
