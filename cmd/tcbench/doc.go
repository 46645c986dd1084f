// Command tcbench is the repository's performance ledger: four workloads
// that each stress different layers of the reproduction, measured end to
// end with tracing off and layer by layer in a second, traced pass. It
// is described to the benchmark driver by BENCHMARK.json at the repository
// root, which a test holds equal to the catalogue in catalogue.go.
//
//	go run ./cmd/tcbench all                    # every workload, one child process each, every metric printed
//	go run ./cmd/tcbench all -trace 1 -spans d  # plus the traced pass; one span file per workload in d
//	go run ./cmd/tcbench all -runs 10 -out A.json
//	go run ./cmd/tcbench compare A.json B.json  # medians, quartiles and a verdict per metric x workload
//	go run ./cmd/tcbench --workload grid-paper --seed 7 --seconds 15 --trace 0   # the driver's spelling
//	go run ./cmd/tcbench catalogue              # the BENCHMARK.json the catalogue implies
//
// The work of every workload is fixed — round, job and repetition counts
// are constants times -seconds — never the time, so a simulated statistic
// is exactly comparable between two commits and only host time is noisy.
// -seed is the only source of variation: every GridSpec, JobSpec and job
// seed derives from it through sweep.DeriveSeed, and the program under
// test receives only the generated specs. GOMAXPROCS, sweep workers, HTTP
// clients and loopback daemons are all at most P = min(nproc, 4).
//
// A run exits non-zero when any check fails: a job that did not end
// done, a cell with an error, or a digest identity that does not hold
// (offline = tcsimd = fleet payloads; EngineSeq = EngineParallel machine
// snapshots; same-seed reruns). README.md in this directory has the
// workload table, the metric tables with their bounds, and which layer
// metric is expected to move which end-to-end metric on which workload.
package main
