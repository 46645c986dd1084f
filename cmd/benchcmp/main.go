// Command benchcmp guards the micro-benchmarks `tcbench` does not report
// against regression. It reads `go test -bench` output on stdin, extracts
// ns/op per benchmark, and compares the run against a committed baseline
// JSON (BENCH_sim.json by default):
//
//	go test -run '^$' -bench 'BenchmarkSetAssocHot(SoA|AoSRef)' ./internal/cache | \
//	    go run ./cmd/benchcmp
//
// The comparison fails (exit 1) when a benchmark slows down by more than
// -tolerance relative to its baseline ns/op, or when a recorded speedup
// pair (e.g. the SoA cache hot path vs its AoS reference) drops below its
// required minimum ratio. -update rewrites the baseline from the current
// run instead of comparing, preserving each pair's required minimum, and
// stamps the measuring host's core count and GOMAXPROCS into
// generated_with.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// Baseline is the committed benchmark reference.
type Baseline struct {
	// GeneratedWith documents how to refresh the file.
	GeneratedWith string `json:"generated_with"`
	// NsPerOp maps benchmark name (no -procs suffix) to baseline ns/op.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// BytesPerOp records B/op for the benchmarks that report it. It is on
	// file for the reader (what a job allocates); nothing is gated on it.
	BytesPerOp map[string]float64 `json:"bytes_per_op,omitempty"`
	// Speedups are required ratios between benchmark pairs.
	Speedups []Speedup `json:"speedups"`
}

// Speedup requires benchmark `Fast` to run at least MinRatio times faster
// than benchmark `Slow`.
type Speedup struct {
	Name          string  `json:"name"`
	Slow          string  `json:"slow"`
	Fast          string  `json:"fast"`
	MinRatio      float64 `json:"min_ratio"`
	RecordedRatio float64 `json:"recorded_ratio"`
}

// benchLine matches e.g. "BenchmarkFoo-16   1234   56.7 ns/op   0 B/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) B/op)?`)

// parseBench extracts ns/op, and B/op where a benchmark reports it.
func parseBench(r io.Reader) (nsPerOp, bytesPerOp map[string]float64, err error) {
	nsPerOp, bytesPerOp = make(map[string]float64), make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if nsPerOp[m[1]], err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, nil, fmt.Errorf("benchcmp: bad ns/op in %q: %w", sc.Text(), err)
		}
		if m[3] == "" {
			continue
		}
		if bytesPerOp[m[1]], err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, nil, fmt.Errorf("benchcmp: bad B/op in %q: %w", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(nsPerOp) == 0 {
		return nil, nil, fmt.Errorf("benchcmp: no benchmark lines on stdin")
	}
	return nsPerOp, bytesPerOp, nil
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_sim.json", "baseline JSON file")
	tolerance := fs.Float64("tolerance", 0.5, "allowed fractional slowdown vs baseline ns/op (0.5 = 50%)")
	update := fs.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	report := fs.Bool("report", false, "report-only mode: print every comparison but never fail")
	if err := fs.Parse(args); err != nil {
		return err
	}

	current, currentBytes, err := parseBench(stdin)
	if err != nil {
		return err
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("benchcmp: read baseline: %w", err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("benchcmp: parse baseline %s: %w", *baselinePath, err)
	}

	if *update {
		base.NsPerOp = current
		base.BytesPerOp = currentBytes
		base.GeneratedWith = withHostFacts(base.GeneratedWith, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		for i := range base.Speedups {
			s := &base.Speedups[i]
			slow, okS := current[s.Slow]
			fast, okF := current[s.Fast]
			if !okS || !okF {
				return fmt.Errorf("benchcmp: speedup %q: run is missing %s or %s", s.Name, s.Slow, s.Fast)
			}
			s.RecordedRatio = round2(slow / fast)
		}
		enc, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchcmp: wrote %s (%d benchmarks)\n", *baselinePath, len(current))
		return nil
	}

	var failures []string
	names := make([]string, 0, len(base.NsPerOp))
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.NsPerOp[name]
		got, ok := current[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from this run", name))
			continue
		}
		change := (got - want) / want
		status := "ok"
		if change > *tolerance {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (+%.0f%% > %.0f%% tolerance)",
				name, got, want, change*100, *tolerance*100))
		}
		fmt.Fprintf(stdout, "%-40s %10.1f ns/op  baseline %10.1f  %+6.1f%%  %s\n",
			name, got, want, change*100, status)
	}
	for _, s := range base.Speedups {
		slow, okS := current[s.Slow]
		fast, okF := current[s.Fast]
		if !okS || !okF {
			failures = append(failures, fmt.Sprintf("speedup %s: missing %s or %s", s.Name, s.Slow, s.Fast))
			continue
		}
		ratio := slow / fast
		status := "ok"
		if ratio < s.MinRatio {
			status = "BELOW MINIMUM"
			failures = append(failures, fmt.Sprintf("speedup %s: %.2fx < required %.2fx (baseline recorded %.2fx)",
				s.Name, ratio, s.MinRatio, s.RecordedRatio))
		}
		fmt.Fprintf(stdout, "speedup %-32s %6.2fx  (required >= %.2fx, baseline %.2fx)  %s\n",
			s.Name, ratio, s.MinRatio, s.RecordedRatio, status)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stderr, "benchcmp:", f)
		}
		if *report {
			fmt.Fprintf(stdout, "benchcmp: report mode, ignoring %d failure(s)\n", len(failures))
			return nil
		}
		return fmt.Errorf("benchcmp: %d failure(s)", len(failures))
	}
	return nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// hostFacts matches the bracketed host annotation withHostFacts appends,
// so repeated -update runs replace it instead of stacking copies.
var hostFacts = regexp.MustCompile(`\s*\[host: \d+ cores?, GOMAXPROCS \d+\]`)

// withHostFacts records where a baseline's numbers were measured: any
// cross-host comparison of the committed ns/op needs the core count and
// GOMAXPROCS of the measuring machine on file.
func withHostFacts(generatedWith string, cores, procs int) string {
	return fmt.Sprintf("%s [host: %d cores, GOMAXPROCS %d]",
		hostFacts.ReplaceAllString(generatedWith, ""), cores, procs)
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
