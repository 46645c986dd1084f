package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"threadcluster/internal/cache"
	"threadcluster/internal/experiments"
	"threadcluster/internal/metrics"
	"threadcluster/internal/pmu"
	"threadcluster/internal/sched"
	"threadcluster/internal/sim"
	"threadcluster/internal/stats"
	"threadcluster/internal/topology"
)

// replayShare is the part of the run's reference count the layer replays
// push through each layer: a quarter keeps the traced run within a few
// times the untraced one, and per-reference costs are averages anyway.
const replayShare = 4

// traceMachine is the traced pass of a machine workload: the same rounds
// again with spans around every segment, then each layer's public
// functions timed on their own — generator, cache, PMU and scheduler
// replays, the alternative engine and coherence mode, snapshot and
// restore. What no replay covers is reported as sim.glue_share.
func (d machineDef) traceMachine(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer, e2e machinePass) error {
	traced, err := d.runMachinePass(ctx, cfg, rec, tr)
	if err != nil {
		return err
	}
	main := traced.main
	rec.metric("trace.overhead_pct", 100*(traced.wall.Seconds()/e2e.wall.Seconds()-1))
	rec.metric("workloads.build_ms", ms(main.build))
	rec.metric("sim.new_machine_ms", ms(main.newMachine))
	rec.metric("sim.rounds_per_s", float64(e2e.rounds)/e2e.wall.Seconds())
	rec.metric("sim.mallocs_per_kref", float64(traced.mallocs)/(float64(traced.refs)/1000))
	recordCacheCounts(rec, traced.delta)

	// metrics: registry snapshot and delta on the warmed machine.
	const reps = 50
	var snap metrics.Snapshot
	start := time.Now()
	for i := 0; i < reps; i++ {
		snap = main.m.SnapshotMetrics()
	}
	rec.metric("metrics.snapshot_us", us(time.Since(start))/reps)
	start = time.Now()
	for i := 0; i < reps; i++ {
		_ = snap.Delta(snap)
	}
	rec.metric("metrics.delta_us", us(time.Since(start))/reps)
	rec.metric("metrics.samples_per_snapshot", float64(len(snap.Samples)))

	// The wall the shares are of. Replays are single-threaded, so where
	// the default engine runs chips in parallel the base is the EngineSeq
	// wall of the same rounds: shares of a wall that overlaps chip work
	// could exceed one.
	shareWall := e2e.wall
	warm, rounds := d.sizes(cfg)
	if d.deferred {
		seq, err := d.rerun(ctx, cfg.Seed, sim.EngineSeq, cache.CoherenceDirectory, warm, rounds, tr, "sim.rounds.seq")
		if err != nil {
			return err
		}
		rec.metric("sim.seq_refs_per_s", seq.refsPerSecond())
		rec.metric("sim.parallel_speedup", e2e.refsPerSecond()/seq.refsPerSecond())
		shareWall = seq.wall
		if err := d.traceSnapshot(ctx, cfg, rec, tr, main); err != nil {
			return err
		}
	}
	bc, err := d.rerun(ctx, cfg.Seed, sim.EngineParallel, cache.CoherenceBroadcast, warm, max(rounds/5, d.segments), tr, "sim.rounds.broadcast")
	if err != nil {
		return err
	}
	rec.metric("cache.broadcast_refs_per_s", bc.refsPerSecond())
	main.m = nil
	runtime.GC()

	rp, err := d.replay(cfg.Seed, e2e, tr)
	if err != nil {
		return err
	}
	perRef := func(t time.Duration) float64 { return float64(t.Nanoseconds()) / float64(rp.refs) }
	// A layer's share: its replayed cost per reference times the run's
	// references, over the wall of the timed rounds.
	share := func(t time.Duration) float64 {
		return perRef(t) * float64(e2e.refs) / float64(shareWall.Nanoseconds())
	}
	rec.metric("workloads.next_ns_per_ref", perRef(rp.next))
	rec.metric("workloads.next_share", share(rp.next))
	rec.metric("cache.access_ns_per_ref", perRef(rp.access))
	cacheTime := rp.access
	if d.deferred {
		rec.metric("cache.lane_access_ns_per_ref", perRef(rp.lane))
		rec.metric("cache.barrier_us_per_slice", us(rp.barrier)/float64(rp.slices))
		cacheTime = rp.lane + rp.barrier
	}
	rec.metric("cache.share", share(cacheTime))
	rec.metric("pmu.observe_ns_per_ref", perRef(rp.pmu))
	rec.metric("pmu.share", share(rp.pmu))

	schedWall, err := schedReplay(d.topo(), main.threads, e2e.rounds, cfg.Seed, tr)
	if err != nil {
		return err
	}
	rec.metric("sched.round_us", us(schedWall)/float64(e2e.rounds))
	schedShare := float64(schedWall.Nanoseconds()) / float64(shareWall.Nanoseconds())
	rec.metric("sim.glue_share", 1-share(rp.next)-share(cacheTime)-share(rp.pmu)-schedShare)

	if cfg.SpansPath != "" {
		return tr.write(cfg.SpansPath)
	}
	return nil
}

func ms(t time.Duration) float64 { return float64(t.Nanoseconds()) / 1e6 }
func us(t time.Duration) float64 { return float64(t.Nanoseconds()) / 1e3 }

// recordCacheCounts records the exact simulated counts of the timed
// rounds from the machine's own metrics snapshot.
func recordCacheCounts(rec *recorder, delta metrics.Snapshot) {
	var accesses, l1, remote uint64
	for s := 0; s < cache.NumSources; s++ {
		src := cache.Source(s)
		n := delta.Counter(sim.MetricCacheAccesses, metrics.Labels{"source": src.String()})
		accesses += n
		if src == cache.SrcL1 {
			l1 = n
		}
		if src.CrossChip() {
			remote += n
		}
	}
	mode := metrics.Labels{"mode": cache.CoherenceDirectory.String()}
	rec.metric("cache.accesses", float64(accesses))
	rec.metric("cache.l1_miss_ratio", stats.Ratio(float64(accesses-l1), float64(accesses)))
	rec.metric("cache.remote_share", stats.Ratio(float64(remote), float64(accesses)))
	rec.metric("cache.invalidations", float64(delta.Counter(sim.MetricCacheInvalidations, nil)))
	rec.metric("cache.upgrades", float64(delta.Counter(sim.MetricCacheUpgrades, nil)))
	rec.metric("cache.writebacks", float64(delta.Counter(sim.MetricCacheWritebacks, nil)))
	rec.metric("cache.directory_peak_lines", delta.Gauge(sim.MetricCacheDirectoryPeak, mode))
	rec.metric("cache.snoop_probes_avoided", float64(delta.Counter(sim.MetricCacheSnoopProbesAvoided, mode)))
	rec.metric("sched.migrations", float64(delta.Counter(sim.MetricSchedMigrations, nil)))
	rec.metric("sched.steals", float64(delta.Counter(sim.MetricSchedSteals, nil)))
}

// rerun builds the machine under another engine or coherence mode and
// times the same kind of rounds on it.
func (d machineDef) rerun(ctx context.Context, seed int64, engine sim.Engine, coh cache.CoherenceMode, warm, rounds int, tr *tracer, name string) (machinePass, error) {
	var pass machinePass
	b, err := d.build(ctx, seed, engine, coh, warm)
	if err != nil {
		return pass, err
	}
	refs := totalRefs(b.m)
	sp := tr.begin(-1, name, fmt.Sprintf("%s/seed%d", d.workload, seed))
	start := time.Now()
	err = b.m.RunRoundsCtx(ctx, rounds)
	pass.wall = time.Since(start)
	tr.end(sp)
	pass.refs = totalRefs(b.m) - refs
	pass.rounds = rounds
	return pass, err
}

// traceSnapshot times snapshot, encode, decode and restore of the warmed
// machine: the baseline a warmed-prefix sweep will cite.
func (d machineDef) traceSnapshot(ctx context.Context, cfg runConfig, rec *recorder, tr *tracer, main *builtMachine) error {
	ref := fmt.Sprintf("%s/seed%d", d.workload, cfg.Seed)
	sp := tr.begin(-1, "sim.snapshot", ref)
	start := time.Now()
	snap, err := main.m.Snapshot(ctx)
	if err != nil {
		return err
	}
	encoded := snap.Encode()
	rec.metric("sim.snapshot_ms", ms(time.Since(start)))
	tr.end(sp)
	rec.metric("sim.snapshot_bytes", float64(len(encoded)))

	sp = tr.begin(-1, "sim.restore", ref)
	start = time.Now()
	decoded, err := sim.DecodeSnapshot(encoded)
	if err != nil {
		return err
	}
	restored, err := sim.RestoreMachine(main.cfg, decoded, func(m *sim.Machine) error {
		spec, err := experiments.BuildWorkload(d.gen, cfg.Seed)
		if err != nil {
			return err
		}
		return spec.Install(m)
	})
	if err != nil {
		return err
	}
	rec.metric("sim.restore_ms", ms(time.Since(start)))
	tr.end(sp)
	again, err := restored.Snapshot(ctx)
	if err != nil {
		return err
	}
	rec.check(again.Digest() == snap.Digest(), "%s: restored machine's snapshot digest differs", d.workload)
	return nil
}

// replayTimes is the host time each layer took to process the replayed
// references on its own.
type replayTimes struct {
	refs                             uint64
	slices                           int
	next, access, lane, barrier, pmu time.Duration
}

// replay generates references from a fresh copy of the workload and
// pushes the same references through a standalone cache hierarchy and
// standalone PMUs under a static round-robin thread-to-CPU map, timing
// each layer's public calls apart. One block is about what one thread
// issues in one interleave slice of the real run.
func (d machineDef) replay(seed int64, e2e machinePass, tr *tracer) (replayTimes, error) {
	var rt replayTimes
	spec, err := experiments.BuildWorkload(d.gen, seed)
	if err != nil {
		return rt, err
	}
	topo := d.topo()
	ncpu := topo.NumCPUs()
	newHier := func() (*cache.Hierarchy, error) {
		return cache.NewHierarchy(topo, topology.DefaultLatencies(), cache.Power5Config())
	}
	serial, err := newHier()
	if err != nil {
		return rt, err
	}
	lanes, err := newHier()
	if err != nil {
		return rt, err
	}
	pmus := make([]*pmu.PMU, ncpu)
	for i := range pmus {
		pmus[i] = pmu.New()
	}

	// Static map: thread i runs on CPU i mod ncpu. CPU ids are chip-major,
	// so ordering the threads by CPU groups every block by chip, which is
	// the order the lanes are driven in.
	type slot struct {
		gen sim.Generator
		cpu topology.CPUID
	}
	slots := make([]slot, len(spec.Threads))
	for i, t := range spec.Threads {
		slots[i] = slot{gen: t.Gen, cpu: topology.CPUID(i % ncpu)}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].cpu < slots[j].cpu })
	perChip := ncpu / topo.Chips

	const slicesPerRound = 4
	block := int(e2e.refs / uint64(e2e.rounds*slicesPerRound*ncpu))
	block = max(block, 16)
	refs := make([]sim.MemRef, block*len(slots))
	results := make([]cache.AccessResult, len(refs))
	target := e2e.refs / replayShare

	ref := fmt.Sprintf("%s/replay", d.workload)
	root := tr.begin(-1, "replay", ref)
	defer tr.end(root)
	for rt.refs < target {
		start := time.Now()
		for s, sl := range slots {
			buf := refs[s*block : (s+1)*block]
			for k := range buf {
				buf[k] = sl.gen.Next()
			}
		}
		rt.next += time.Since(start)

		start = time.Now()
		for s, sl := range slots {
			for k := s * block; k < (s+1)*block; k++ {
				results[k] = serial.Access(sl.cpu, refs[k].Addr, refs[k].Write)
			}
		}
		rt.access += time.Since(start)

		if d.deferred {
			start = time.Now()
			for s, sl := range slots {
				lane := lanes.Lane(int(sl.cpu) / perChip)
				for k := s * block; k < (s+1)*block; k++ {
					lane.Access(sl.cpu, refs[k].Addr, refs[k].Write)
				}
			}
			mid := time.Now()
			lanes.SliceBarrier()
			rt.lane += mid.Sub(start)
			rt.barrier += time.Since(mid)
			rt.slices++
		}

		start = time.Now()
		for s, sl := range slots {
			observeBlock(pmus[sl.cpu], refs[s*block:(s+1)*block], results[s*block:(s+1)*block])
		}
		rt.pmu += time.Since(start)
		rt.refs += uint64(len(refs))
	}
	return rt, nil
}

// observeBlock feeds one slice's access results to a PMU the way the
// simulator's slice loop does when no overflow handler is armed: deltas
// accumulate in a batch flushed once, misses update the sampling register
// per reference.
func observeBlock(p *pmu.PMU, refs []sim.MemRef, results []cache.AccessResult) {
	var batch pmu.Batch
	for i, res := range results {
		ref := refs[i]
		completion := ref.Insts + 1
		var stall uint64
		stallEv, hasStall := pmu.StallEvent(res.Source)
		if hasStall && res.Cycles > 1 {
			stall = res.Cycles - 1
		}
		batch.Add(pmu.EvCycles, completion+stall+ref.BranchStall+ref.OtherStall)
		batch.Add(pmu.EvInstCompleted, completion)
		batch.Add(pmu.EvCompletionCycles, completion)
		if hasStall && stall > 0 {
			batch.Add(stallEv, stall)
		}
		batch.Add(pmu.EvStallBranch, ref.BranchStall)
		batch.Add(pmu.EvStallOther, ref.OtherStall)
		if res.L1Miss {
			p.RecordMiss(res.Line, res.Source)
		}
	}
	p.ObserveBatch(&batch)
}

// schedReplay times the scheduler's share of a round on its own: one
// PickNext per CPU, one Requeue per dispatched thread and one
// ProactiveBalance, at the workload's thread count.
func schedReplay(topo topology.Topology, threads, rounds int, seed int64, tr *tracer) (time.Duration, error) {
	s, err := sched.New(topo, sched.PolicyDefault, seed)
	if err != nil {
		return 0, err
	}
	for i := 0; i < threads; i++ {
		if err := s.AddThread(sched.ThreadID(i)); err != nil {
			return 0, err
		}
	}
	ncpu := topo.NumCPUs()
	running := make([]sched.ThreadID, 0, ncpu)
	sp := tr.begin(-1, "sched.replay", "sched")
	defer tr.end(sp)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		running = running[:0]
		for c := 0; c < ncpu; c++ {
			if id, ok := s.PickNext(topology.CPUID(c)); ok {
				running = append(running, id)
			}
		}
		for _, id := range running {
			s.Requeue(id)
		}
		s.ProactiveBalance()
	}
	return time.Since(start), nil
}
