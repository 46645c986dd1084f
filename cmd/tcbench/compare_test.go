package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// ledgerOf builds a ledger of untraced machine-serial runs, one per
// (seed, wall, cpi) triple, plus one digest per run.
func ledgerOf(host hostStamp, digest string, walls []float64, cpi float64) ledger {
	var l ledger
	for i, w := range walls {
		l.Runs = append(l.Runs, runResult{
			Workload: wlMachineSerial, Seed: int64(i), Host: host,
			Metrics: []metricValue{
				{Name: "timed_wall_s", Unit: "s", Value: w},
				{Name: "sim_cpi", Unit: "cycles/inst", Value: cpi},
			},
			Digests: map[string]string{"metrics": digest},
		})
	}
	return l
}

func verdictOf(t *testing.T, rows []comparison, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.Metric == metric {
			return r.Verdict
		}
	}
	t.Fatalf("no row for %s", metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	host := hostStamp{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", Commit: "a"}
	steady := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 7, 13, 10, 10, 8.5, 11.5}
	base := ledgerOf(host, "d1", steady, 2.5)
	cases := []struct {
		name    string
		b       ledger
		wall    string
		cpi     string
		digests int
	}{
		{"same", ledgerOf(host, "d1", scale(1.02), 2.5), verdictSame, verdictSame, 0},
		{"worse", ledgerOf(host, "d1", scale(1.4), 2.5), verdictWorse, verdictSame, 0},
		{"better", ledgerOf(host, "d1", scale(0.7), 2.5), verdictBetter, verdictSame, 0},
		{"unresolved", ledgerOf(host, "d1", noisy, 2.5), verdictUnresolved, verdictSame, 0},
		{"simulated statistic moved", ledgerOf(host, "d2", steady, 2.6), verdictSame, verdictWorse, len(steady)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, diffs := compareLedgers(base, c.b)
			if got := verdictOf(t, rows, "timed_wall_s"); got != c.wall {
				t.Errorf("timed_wall_s verdict %q, want %q", got, c.wall)
			}
			if got := verdictOf(t, rows, "sim_cpi"); got != c.cpi {
				t.Errorf("sim_cpi verdict %q, want %q", got, c.cpi)
			}
			if len(diffs) != c.digests {
				t.Errorf("%d digest differences, want %d: %v", len(diffs), c.digests, diffs)
			}
		})
	}
}

// TestCompareCommand drives the subcommand over files: a clean pair
// exits zero, a regression and a host mismatch do not.
func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	host := hostStamp{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"}
	other := host
	other.NProc, other.GOMAXPROCS = 8, 4
	walls := []float64{10, 10.1, 9.9}
	write := func(name string, l ledger) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, l); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", ledgerOf(host, "d", walls, 2.5))
	same := write("same.json", ledgerOf(host, "d", walls, 2.5))
	slow := write("slow.json", ledgerOf(host, "d", []float64{13, 13.1, 12.9}, 2.5))
	foreign := write("foreign.json", ledgerOf(other, "d", walls, 2.5))

	var out bytes.Buffer
	if err := runCompare([]string{a, same}, &out); err != nil {
		t.Errorf("identical ledgers: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "digests: identical") {
		t.Errorf("no digest line in:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare([]string{a, slow}, &out); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30%% slower: err %v\n%s", err, out.String())
	}
	out.Reset()
	if err := runCompare([]string{a, foreign}, &out); err == nil || !strings.Contains(out.String(), "WARNING: host stamps differ") {
		t.Errorf("host mismatch: err %v\n%s", err, out.String())
	}
}
