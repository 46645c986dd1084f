# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet tclint lint test test-short test-race bench bench-compare bench-baseline bench-smoke ledger-smoke profile-grid fuzz-smoke experiments experiments-check goldens sweep-smoke server-smoke snapshot-smoke fleet-smoke examples clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers (detrand, wallclock, maporder, errwrap,
# ctxplumb; see DESIGN.md §6), run by tclint's own driver: it lists
# ./... with `go list -export -deps` and type-checks each package against
# its imports' export data.
tclint:
	$(GO) run ./cmd/tclint ./...

# Full local lint: standard vet, the project analyzers, and staticcheck
# when installed (CI always runs it; the local toolbox may not have it).
lint: vet tclint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (CI runs it — install with:" ; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@2023.1.7)" ; \
	fi

test:
	$(GO) test ./...

# Short mode skips the multi-minute experiment-shape tests.
test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The guarded micro-benchmarks tcbench does not report, one recipe for
# three targets that differ only in the flag benchcmp gets: the
# fresh-vs-recycled short-job pairs on the OpenPower 720 and the 32-way
# machine (whole job timed; slabs are built on first Insert, so a short
# job builds little either way and the floor is 1.0: building on a
# closed machine's slabs must never cost more than allocating them; B/op
# is recorded next to ns/op) and the SoA-vs-AoS cache hot-path pair,
# against BENCH_sim.json (two `go test -bench` runs concatenated into
# one benchcmp input). Coherence and engine speed are tcbench's
# cache.broadcast_refs_per_s and sim.parallel_speedup.
#
#   bench-compare   (no flag) fails when a benchmark regresses past
#                   tolerance or a speedup pair drops below its required
#                   minimum.
#   bench-baseline  (-update) refreshes the committed baselines from
#                   this machine.
#   bench-smoke     (-report) prints every comparison but never fails:
#                   for CI runners whose shared-tenancy timing noise
#                   makes the gates unreliable.
bench-compare: BENCHCMP_FLAG =
bench-baseline: BENCHCMP_FLAG = -update
bench-smoke: BENCHCMP_FLAG = -report
bench-compare bench-baseline bench-smoke:
	{ $(GO) test -run '^$$' -bench 'BenchmarkNewMachine(Fresh|Recycled)' -benchtime 2s ./internal/sim ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkSetAssocHot(SoA|AoSRef)' -benchtime 1s ./internal/cache ; } \
		| $(GO) run ./cmd/benchcmp -baseline BENCH_sim.json $(BENCHCMP_FLAG)

# The performance ledger's identity checks at one second of fixed work
# per workload (~12 s): exits non-zero unless the seq and parallel
# engines snapshot to one digest and the offline, tcsimd and fleet runs
# of a grid produce one payload digest. Timings it prints are not gated.
ledger-smoke:
	$(GO) run ./cmd/tcbench all -seconds 1

# CPU profile of the hot loop as grid-paper drives it: that workload's
# Fig. 6/7 grid at its 15-second round counts (under the sweep's default
# seed, not tcbench's derived one), on one worker, written to grid.pprof
# (`go tool pprof -top grid.pprof`). Start a hot-loop change here, and
# compare the same profile on the parent commit.
profile-grid:
	$(GO) run ./cmd/tcsim sweep -warm 50 -engine 1000 -measure 100 -workers 1 -cpuprofile grid.pprof

# Short fuzzing pass over the coherence differential target, the
# snapshot decoder, the snapbin codec under it, the generator's
# State/Restore round trip, the job-spec decoder, the cell-record
# decoder, the metrics JSON appender's byte-identity to encoding/json and
# a done job's kept payload (shape plus values) against the served bytes
# it stands for (CI runs the same).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzHierarchyAccess -fuzztime 30s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSnapbinDec -fuzztime 15s ./internal/snapbin
	$(GO) test -run '^$$' -fuzz FuzzRandRestore -fuzztime 10s ./internal/rng
	$(GO) test -run '^$$' -fuzz FuzzJobSpec -fuzztime 15s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzCellRecord -fuzztime 15s ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzSnapshotJSON -fuzztime 15s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzKeptPayload -fuzztime 15s ./internal/server

# Race-detector coverage for the concurrent packages, including the
# chip-parallel engine differential (seq vs parallel byte-identity under
# every GOMAXPROCS level), the Next adapter against multi-reference runs
# whose tails chip workers carry across slices, the golden snapshot, old-version-refusal and
# trajectory tests (TestGolden*), the snapshot N+M differential
# (including a foreign state provider) and field-by-field coverage
# walk, the slice barrier's canonical
# drain order, the three-way reference/broadcast/directory walk
# differential and the per-op directory scan at several GOMAXPROCS
# levels, the refusal of hostile restored cache states in both coherence
# modes, Run's saturating budget, the lazily built slabs (lazy == eager at every step, first
# Inserts racing on the pool from lane goroutines), the sparse victim L3
# (sparse == dense, also on a 12-way L3 of few sets whose sets start in
# 4-way blocks and are promoted, inside the lane goroutines too; one block
# per filled set, small until the set's fifth line), the presence table against
# a Go map, and the slab pool
# (released == fresh word for word, reuse after Close and after a
# failed interval or restore, and sweep workers
# handing slabs of two machine geometries to each other while every cell
# stays equal to the serial run's), the experiment harnesses'
# golden-output and Options-plumbing tests (their policy/workload fan-out
# runs on sweep.Map goroutines), the workload generators (a B-tree worker
# shared between threads, or marked Confined so the parallel engine runs
# it off the serial path, trips the detector), the job server + client
# under load, the fleet's digest at fleet sizes {1,2,5} with seed-derived
# worker kills (TestFleetDigestMatchesOffline),
# concurrent settles interning one payload shape and scrapes reading the
# sim totals while settles accumulate them, at several GOMAXPROCS levels,
# and the fleet's straggler timer five times per GOMAXPROCS level.
test-race:
	$(GO) test -race ./internal/metrics ./internal/sweep
	$(GO) test -race -short -run 'TestHarnessGolden|TestHarnessOptionsReachMachine' ./internal/experiments
	$(GO) test -race -short -run 'TestCatalogueSharesCells|TestExperimentsCloseEveryMachine' -cpu 1,2,4 ./internal/experiments
	$(GO) test -race -run 'TestGridRecyclesAcrossWorkers|TestBuildFailureRecyclesSlabs|TestGridCellsCloseTheirMachine' -cpu 1,2,4 ./internal/experiments
	$(GO) test -race -run 'TestEngine|TestRunSlice|TestRunSaturates|TestNextAdapter|TestSnapshot|TestGolden|TestClose' ./internal/sim
	$(GO) test -race -short -run 'TestSliceBarrierCanonicalOrder|TestBroadcastDirectoryEquivalence|TestDirectoryMatchesScanAfterEveryOp|TestOneAccessWalk|TestRestoreRefuses|TestReleased|TestLazy|TestVictimL3HoldsWhatItCaches|TestCastOutStreamReachesL3|TestPromoteStreamReachesFullBlock|TestSparseArenaNeverOutgrowsDense|TestLineTableMatchesMap' -cpu 1,2,4 ./internal/cache
	$(GO) test -race -short ./internal/workloads ./internal/pmu
	$(GO) test -race ./internal/server ./internal/client ./internal/fleet
	$(GO) test -race -count 3 -cpu 1,2,4 -run 'TestSettledJobsShareOneShape|TestScrapesDuringSettles|TestJobCountsMatchJobs' ./internal/server
	$(GO) test -race -count 5 -cpu 1,2,4 -run 'TestFleetStealsStragglers|TestFleetStragglerAloneRetriesOnItself|TestFleetRecoversTwoStalledAttempts|TestFleetDuplicatesNeverDisplacePendingWork' ./internal/fleet

# End-to-end smoke of the tcsimd job service: boot the daemon, submit a
# grid, require the job digest to equal the offline sweep digest, and
# scrape /metrics.
server-smoke:
	sh ./scripts/server_smoke.sh

# End-to-end smoke of snapshot/restore and daemon resume: a split
# `tcsim snapshot` run must be byte-identical to an unbroken one, a
# tcsimd SIGKILLed mid-job must resume from its cell records to the
# offline sweep digest, a resubmission under a new ID must replay
# them to the same digest, and the grid with one workload appended must
# replay every old cell and reach its own offline digest.
snapshot-smoke:
	sh ./scripts/snapshot_smoke.sh

# End-to-end smoke of the tcfleet coordinator: start two tcsimd
# workers, SIGKILL one mid-sweep, and require the fleet-merged digest
# to equal the offline sweep digest.
fleet-smoke:
	sh ./scripts/fleet_smoke.sh

# Regenerate every table/figure/study of the paper into the committed
# experiments_output.txt (EXPERIMENTS.md and the README quote from it).
experiments:
	$(GO) run ./cmd/tcsim -exp all > experiments_output.txt.tmp
	mv experiments_output.txt.tmp experiments_output.txt

# Regenerate every experiment and fail unless the output equals the
# committed experiments_output.txt outside the ablation table's
# wall-clock Cost column.
experiments-check:
	sh ./scripts/experiments_check.sh

# Regenerate every pinned artifact of simulated behaviour, in one go: the
# golden machine snapshots and their digests, the trajectory pins, the
# B-tree reference-stream digests, the per-experiment output digests and
# experiments_output.txt. For a digest epoch only — a change that is
# meant to move simulated results (DESIGN.md §6, "Epochs") — never for a
# refactor or a host-time optimisation, whose whole proof is that these
# files did not change. Review the diff of experiments_output.txt and run
# the shape tests (`make test`) afterwards: they, not the pins, say
# whether the science moved. Goldens that moved mean a new epoch: bump
# experiments.DigestEpoch and re-pin TestDigestEpochPinned.
goldens:
	$(GO) test ./internal/sim -run 'TestGoldenSnapshotCompat|TestGoldenTrajectory' -update-golden -update-trajectory
	$(GO) test ./internal/workloads -run TestBTreeGeneratorStreamsGolden -update-stream-golden
	$(GO) test ./internal/experiments -run TestHarnessGolden -update-harness-golden
	$(MAKE) experiments

# Tiny 2x2 sweep grid as a smoke test of the concurrent runner.
sweep-smoke:
	$(GO) run ./cmd/tcsim sweep \
		-workloads microbenchmark,volano -policies default,clustered \
		-warm 30 -engine 50 -measure 30

examples:
	$(GO) run ./examples/quickstart

clean:
	$(GO) clean ./...
