package pagedetect

import (
	"context"
	"testing"
	"testing/quick"

	"threadcluster/internal/clustering"
	"threadcluster/internal/memory"
	"threadcluster/internal/rng"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/workloads"
)

func TestPageOf(t *testing.T) {
	tests := []struct{ in, want memory.Addr }{
		{0, 0},
		{4095, 0},
		{4096, 4096},
		{0x12345, 0x12000},
	}
	for _, tc := range tests {
		if got := PageOf(tc.in); got != tc.want {
			t.Errorf("PageOf(%#x) = %#x, want %#x", uint64(tc.in), uint64(got), uint64(tc.want))
		}
	}
}

func TestPageOfProperty(t *testing.T) {
	f := func(a uint64) bool {
		p := PageOf(memory.Addr(a))
		return uint64(p)%PageSize == 0 && a-uint64(p) < PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{FaultCycles: 0, SweepInterval: 1}); err == nil {
		t.Error("zero fault cost should fail")
	}
	if _, err := New(Config{FaultCycles: 1, SweepInterval: 0}); err == nil {
		t.Error("zero sweep interval should fail")
	}
	if _, err := New(Config{FaultCycles: 1, SweepInterval: 1}); err != nil {
		t.Error("minimal valid config should work")
	}
}

func TestFaultOncePerEpoch(t *testing.T) {
	d, _ := New(DefaultConfig())
	d.enabled = true
	th := &sim.Thread{ID: 1}
	ref := sim.MemRef{Addr: 0x5000}
	if c := d.observe(0, th, ref); c == 0 {
		t.Fatal("first touch must fault")
	}
	if c := d.observe(0, th, ref); c != 0 {
		t.Fatal("second touch in the same epoch must be free")
	}
	// Same page, different offset: still free.
	if c := d.observe(0, th, sim.MemRef{Addr: 0x5ABC}); c != 0 {
		t.Fatal("same-page access must be free within the epoch")
	}
	// Different page: faults.
	if c := d.observe(0, th, sim.MemRef{Addr: 0x9000}); c == 0 {
		t.Fatal("new page must fault")
	}
	if d.Faults() != 2 {
		t.Errorf("faults = %d, want 2", d.Faults())
	}
	if d.PagesSeen() != 2 {
		t.Errorf("pages seen = %d, want 2", d.PagesSeen())
	}
}

func TestSignatureRecordsThreads(t *testing.T) {
	d, _ := New(DefaultConfig())
	d.enabled = true
	a, b := &sim.Thread{ID: 1}, &sim.Thread{ID: 2}
	d.observe(0, a, sim.MemRef{Addr: 0x5000})
	d.observe(1, b, sim.MemRef{Addr: 0x9000})
	if len(d.Vectors()) != 2 {
		t.Fatalf("vectors = %d, want 2", len(d.Vectors()))
	}
	if d.Vectors()[1][0x5000] != 1 || d.Vectors()[2][0x9000] != 1 {
		t.Error("each thread should have one faulted page")
	}
}

func TestFalseSharingAtPageGranularity(t *testing.T) {
	// Two threads touching different cache lines of the SAME page are
	// indistinguishable — the drawback the paper calls out.
	d, _ := New(DefaultConfig())
	d.enabled = true
	a, b := &sim.Thread{ID: 1}, &sim.Thread{ID: 2}
	d.observe(0, a, sim.MemRef{Addr: 0x5000}) // line 0 of page 0x5000
	// New epoch so b's touch faults too.
	d.protected[0x5000] = true
	d.observe(1, b, sim.MemRef{Addr: 0x5F80}) // last line of the same page
	va, vb := d.Vectors()[1], d.Vectors()[2]
	if va[0x5000] == 0 || vb[0x5000] == 0 {
		t.Error("accesses to distinct lines of one page must land on the same page record (false sharing)")
	}
}

func TestSimilarityFloorAndGlobal(t *testing.T) {
	a := map[memory.Addr]uint32{0x1000: 10, 0x2000: 1, 0x3000: 8}
	b := map[memory.Addr]uint32{0x1000: 5, 0x2000: 9, 0x3000: 7}
	// Floor 3 zeroes a's 0x2000; global masks 0x3000.
	global := map[memory.Addr]bool{0x3000: true}
	got := Similarity(a, b, 3, global)
	if got != 50 {
		t.Errorf("similarity = %v, want 50 (only page 0x1000 counts)", got)
	}
	if Similarity(a, b, 3, global) != Similarity(b, a, 3, global) {
		t.Error("similarity must be symmetric")
	}
}

func TestSweepRearmsPages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepInterval = 1 // re-protect on every tick
	d, _ := New(cfg)

	mcfg := sim.DefaultConfig()
	mcfg.QuantumCycles = 10_000
	m, _ := sim.NewMachine(mcfg)
	arena := memory.NewDefaultArena()
	spec, err := workloads.NewSynthetic(arena, workloads.DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Install(m); err != nil {
		t.Fatal(err)
	}
	d.Install(m)
	m.RunRoundsCtx(context.Background(), 10)
	if d.Sweeps() == 0 {
		t.Error("sweeps should have run")
	}
	if d.PagesSwept() == 0 {
		t.Error("pages should have been re-protected")
	}
	// Faults should far exceed pages seen (pages fault again after sweeps).
	if d.Faults() <= uint64(d.PagesSeen()) {
		t.Errorf("faults %d should exceed distinct pages %d after sweeps", d.Faults(), d.PagesSeen())
	}
}

func TestOverheadChargedToMachine(t *testing.T) {
	d, _ := New(DefaultConfig())
	mcfg := sim.DefaultConfig()
	mcfg.QuantumCycles = 10_000
	m, _ := sim.NewMachine(mcfg)
	arena := memory.NewDefaultArena()
	spec, _ := workloads.NewSynthetic(arena, workloads.DefaultSyntheticConfig())
	_ = spec.Install(m)
	d.Install(m)
	m.RunRoundsCtx(context.Background(), 20)
	if m.OverheadCycles() == 0 {
		t.Error("page faults should cost machine cycles")
	}
	d.Stop(m)
	base := d.Faults()
	m.RunRoundsCtx(context.Background(), 5)
	if d.Faults() != base {
		t.Error("stopped detector must not observe")
	}
}

func TestDetectorClustersPageSegregatedData(t *testing.T) {
	// Positive control: when each sharing group's data occupies its own
	// pages (page-aligned, page-sized scoreboards), the page mechanism
	// does recover the groups. The paper's critique is about what happens
	// in the realistic layouts of the other tests, not that the mechanism
	// never works.
	d, _ := New(DefaultConfig())
	mcfg := sim.DefaultConfig()
	mcfg.QuantumCycles = 20_000
	mcfg.Policy = sched.PolicyRoundRobin
	m, _ := sim.NewMachine(mcfg)
	arena := memory.NewDefaultArena()
	cfg := workloads.DefaultSyntheticConfig()
	cfg.ScoreboardBytes = 2 * PageSize
	cfg.Align = PageSize
	spec, err := workloads.NewSynthetic(arena, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = spec.Install(m)
	d.Install(m)
	m.RunRoundsCtx(context.Background(), 500)

	clusters := d.Cluster(DefaultClusterConfig())
	truth := make(map[clustering.ThreadKey]int)
	for _, th := range spec.Threads {
		truth[clustering.ThreadKey(th.ID)] = th.Partition
	}
	big := 0
	for _, c := range clusters {
		if c.Size() >= 2 {
			big++
		}
	}
	if big == 0 {
		t.Fatalf("page detector found no clusters even with page-segregated data (%d total)", len(clusters))
	}
	if p := clustering.Purity(clusters, truth); p < 0.8 {
		t.Errorf("purity = %.2f, want >= 0.8 for page-segregated groups", p)
	}
}

func TestDetectorConfusedByAllocatorInterleaving(t *testing.T) {
	// SPECjbb's two warehouses keep growing from a single shared
	// allocator, so nodes of both trees interleave on the same 4KB pages.
	// At page granularity the warehouses become inseparable: many pages
	// look process-global and same- vs cross-warehouse similarities
	// converge — the false-sharing drawback of Section 1, emerging from
	// layout alone. The PMU path separates the same workload perfectly
	// (see internal/experiments tests).
	//
	// How badly the trees interleave depends on which keys the run
	// inserts, so the claim is stated over a seed sweep: on at least 4 of
	// 5 derived seeds the page path must NOT cleanly recover the 2
	// warehouses.
	const seeds = 5
	confused := 0
	for i := 0; i < seeds; i++ {
		seed := rng.Derive(1, i)
		d, _ := New(DefaultConfig())
		mcfg := sim.DefaultConfig()
		mcfg.QuantumCycles = 20_000
		mcfg.Policy = sched.PolicyRoundRobin
		mcfg.Seed = seed
		m, _ := sim.NewMachine(mcfg)
		arena := memory.NewDefaultArena()
		cfg := workloads.DefaultJBBConfig()
		cfg.InitialKeys = 1500
		cfg.Seed = seed
		spec, err := workloads.NewJBB(arena, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = spec.Install(m)
		d.Install(m)
		m.RunRoundsCtx(context.Background(), 500)

		clusters := d.Cluster(DefaultClusterConfig())
		truth := make(map[clustering.ThreadKey]int)
		for _, th := range spec.Threads {
			truth[clustering.ThreadKey(th.ID)] = th.Partition
		}
		purity := clustering.Purity(clusters, truth)
		t.Logf("seed %d: %d clusters, purity %.2f", seed, len(clusters), purity)
		if len(clusters) != 2 || purity != 1.0 {
			confused++
		}
	}
	if confused < seeds-1 {
		t.Errorf("page granularity separated interleaved warehouses cleanly on %d of %d seeds, want at most 1", seeds-confused, seeds)
	}
}

func TestDetectorFailsOnSubPageStructures(t *testing.T) {
	// The microbenchmark's four 2KB scoreboards coalesce onto two 4KB
	// pages; every thread faults on them, the pages look process-global,
	// and the sharing signal vanishes — the granularity pathology of
	// Section 1. The PMU path at 128-byte granularity separates the same
	// groups perfectly (see internal/experiments).
	d, _ := New(DefaultConfig())
	mcfg := sim.DefaultConfig()
	mcfg.QuantumCycles = 20_000
	mcfg.Policy = sched.PolicyRoundRobin
	m, _ := sim.NewMachine(mcfg)
	arena := memory.NewDefaultArena()
	spec, _ := workloads.NewSynthetic(arena, workloads.DefaultSyntheticConfig())
	_ = spec.Install(m)
	d.Install(m)
	m.RunRoundsCtx(context.Background(), 400)

	clusters := d.Cluster(DefaultClusterConfig())
	truth := make(map[clustering.ThreadKey]int)
	for _, th := range spec.Threads {
		truth[clustering.ThreadKey(th.ID)] = th.Partition
	}
	// Either the groups dissolve into singletons (global-mask pathology)
	// or they merge across scoreboards (false sharing); both mean the
	// page path cannot reproduce the 4-cluster ground truth.
	if ri := clustering.RandIndex(clusters, truth); ri > 0.9 {
		fourWay := 0
		for _, c := range clusters {
			if c.Size() == 4 {
				fourWay++
			}
		}
		if fourWay == 4 {
			t.Errorf("page granularity unexpectedly recovered sub-page scoreboard groups (rand=%.2f)", ri)
		}
	}
}

func TestReset(t *testing.T) {
	d, _ := New(DefaultConfig())
	d.enabled = true
	d.observe(0, &sim.Thread{ID: 1}, sim.MemRef{Addr: 0x5000})
	d.Reset()
	if d.Faults() != 0 || d.PagesSeen() != 0 || len(d.Vectors()) != 0 {
		t.Error("Reset should clear everything")
	}
}
