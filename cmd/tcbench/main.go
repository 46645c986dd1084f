package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// runConfig says which workload to run and how.
type runConfig struct {
	Workload string
	Seed     int64
	// Seconds sizes the work: every workload's round, job and repetition
	// counts are a fixed rate times Seconds.
	Seconds int
	// Quick replaces the sizes with toy ones (tens of rounds, 20 jobs,
	// 2 fleet repetitions) for the tests.
	Quick bool
	Trace bool
	// SpansPath, on a traced run, receives the span file.
	SpansPath string

	// forceMismatch corrupts one digest before it is compared; only the
	// negative test sets it.
	forceMismatch bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches on the first argument: `all`, `compare`, `catalogue`
// (print the BENCHMARK.json the catalogue implies), or flags that name
// one workload.
func run(args []string, stdout, stderr io.Writer) int {
	var err error
	switch {
	case len(args) > 0 && args[0] == "all":
		err = runAll(args[1:], stdout, stderr)
	case len(args) > 0 && args[0] == "compare":
		err = runCompare(args[1:], stdout)
	case len(args) > 0 && args[0] == "catalogue":
		var data []byte
		if data, err = json.MarshalIndent(catalogueDoc(), "", "  "); err == nil {
			fmt.Fprintf(stdout, "%s\n", data)
		}
	default:
		err = runOne(args, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tcbench:", err)
		return 1
	}
	return 0
}

// errChecksFailed makes a run whose checks failed exit non-zero after
// its result has been printed.
var errChecksFailed = errors.New("checks failed (failed_share > 0)")

// benchFlags are the flags one workload's run and `all` share. The
// spelling `--workload W --seed N --seconds S --trace 0|1` is the
// benchmark driver's.
func benchFlags(fs *flag.FlagSet, cfg *runConfig, trace *int) {
	fs.Int64Var(&cfg.Seed, "seed", defaultSeed, "the only source of variation: every spec and job seed derives from it")
	fs.IntVar(&cfg.Seconds, "seconds", defaultSeconds, "time budget the fixed work is sized for on the reference box")
	fs.IntVar(trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	fs.BoolVar(&cfg.Quick, "quick", false, "toy sizes, for tests")
}

// runOne runs a single workload in this process and prints, as the last
// line of standard output, the result object the benchmark driver reads.
func runOne(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	benchFlags(fs, &cfg, &trace)
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run (see BENCHMARK.json)")
	fs.StringVar(&cfg.SpansPath, "spans", "", "traced run: write the span file here")
	record := fs.Bool("record", false, "print the full result record as a `tcbench-record:` line before the result line (how `all` reads its children)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (usage: tcbench all | compare A B | --workload W)", fs.Arg(0))
	}
	cfg.Trace = trace != 0
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	return report(res, *record, stdout)
}

// recordPrefix marks the line on which a child of `all` hands its full
// result record to the parent.
const recordPrefix = "tcbench-record: "

// report prints the run's metrics, the full record when asked, and ends
// standard output with the result line. A run with failed checks is
// reported in full and then fails the command.
func report(res runResult, record bool, stdout io.Writer) error {
	res.print(stdout)
	if record {
		data, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("encoding result record: %w", err)
		}
		fmt.Fprintf(stdout, "%s%s\n", recordPrefix, data)
	}
	line, err := res.contractLine()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed > 0 {
		return errChecksFailed
	}
	return nil
}

// runWorkload runs one workload to completion and returns its record.
func runWorkload(ctx context.Context, cfg runConfig) (runResult, error) {
	if cfg.Seconds < 1 {
		return runResult{}, fmt.Errorf("-seconds must be at least 1")
	}
	rec := newRecorder(cfg, pinHost())
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var err error
	switch cfg.Workload {
	case wlMachineSerial, wlMachineDeferred:
		err = runMachine(ctx, cfg, rec, tr)
	case wlGridPaper:
		err = runGridPaper(ctx, cfg, rec, tr)
	case wlServiceFloor:
		err = runServiceFloor(ctx, cfg, rec, tr)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return runResult{}, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	return rec.finish(), nil
}

// runAll runs every workload, each in a child process of its own so that
// peak memory and GC state do not leak from one to the next, and prints
// every metric. With -trace 1 each workload runs twice: the untraced
// child gives the end-to-end record, the traced child the layers.
func runAll(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tcbench all", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	benchFlags(fs, &cfg, &trace)
	runs := fs.Int("runs", 1, "repetitions of the whole set; run r uses seed+r")
	out := fs.String("out", "", "write the result ledger (input of `tcbench compare`) to this file")
	spansDir := fs.String("spans", "", "traced runs: directory for one span file per workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	if *spansDir != "" {
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			return fmt.Errorf("creating span directory: %w", err)
		}
	}

	var led ledger
	failed := false
	for r := 0; r < *runs; r++ {
		for _, w := range workloadCatalogue {
			for pass := 0; pass <= min(trace, 1); pass++ {
				childArgs := []string{
					"--workload", w.Name,
					"--seed", fmt.Sprint(cfg.Seed + int64(r)),
					"--seconds", fmt.Sprint(cfg.Seconds),
					"--trace", fmt.Sprint(pass),
					"--record",
				}
				if cfg.Quick {
					childArgs = append(childArgs, "--quick")
				}
				if pass == 1 && *spansDir != "" {
					childArgs = append(childArgs, "--spans", filepath.Join(*spansDir, w.Name+".spans.json"))
				}
				res, err := runChild(self, childArgs, stdout, stderr)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				led.Runs = append(led.Runs, res)
				failed = failed || res.Failed > 0
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, led); err != nil {
			return err
		}
	}
	if failed {
		return errChecksFailed
	}
	return nil
}

// runChild runs one workload in a child process, passes its output
// through (all but the record line) and returns the record. A child that
// exits non-zero after handing over its record had failed checks, which
// the record says; one that hands over nothing is an error.
func runChild(self string, args []string, stdout, stderr io.Writer) (runResult, error) {
	var res runResult
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, fmt.Errorf("starting child: %w", err)
	}
	got := false
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var scanErr error
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, recordPrefix); ok {
			if scanErr = json.Unmarshal([]byte(rest), &res); scanErr == nil {
				got = true
			}
			continue
		}
		fmt.Fprintln(stdout, line)
	}
	if scanErr == nil {
		scanErr = sc.Err()
	}
	waitErr := cmd.Wait()
	switch {
	case scanErr != nil:
		return res, fmt.Errorf("reading child output: %w", scanErr)
	case !got:
		return res, fmt.Errorf("child left no result record (%v)", waitErr)
	}
	return res, nil
}
