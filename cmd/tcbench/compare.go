package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// Verdicts of `tcbench compare`, B (the change) against A (the baseline).
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved" // the run-to-run spread is wider than the metric's bound
	verdictInfo       = "-"          // a layer metric: reported, not judged
)

// comparison is one metric on one workload, A against B.
type comparison struct {
	Workload, Metric, Unit, Kind string
	A, B                         []float64
	Verdict                      string
}

// sign is +1 when a larger value is worse, -1 when it is better.
func sign(d metricDef) float64 {
	if d.Better == "higher" {
		return -1
	}
	return 1
}

// judge gives the verdict for a bounded host-time metric from the two
// sides' samples. A side's spread is its interquartile distance over its
// median. Where either spread exceeds the bound the medians cannot
// resolve a change of that size, and the verdict is unresolved unless
// every B run beats (or loses to) every A run.
func judge(d metricDef, a, b []float64) string {
	s := sign(d)
	aq1, amed, aq3 := quartiles(a)
	_, bmed, _ := quartiles(b)
	// badness: the value oriented so that larger is worse.
	extent := func(v []float64) (lo, hi float64) {
		lo, hi = s*v[0], s*v[0]
		for _, x := range v {
			lo, hi = min(lo, s*x), max(hi, s*x)
		}
		return lo, hi
	}
	aLo, aHi := extent(a)
	bLo, bHi := extent(b)
	worsening := s * (bmed - amed) / amed
	if max(spread(a), spread(b)) > d.Bound {
		switch {
		case bHi < aLo:
			return verdictBetter
		case bLo > aHi && worsening > d.Bound:
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case worsening > d.Bound:
		return verdictWorse
	case s*(amed-bmed) > aq3-aq1:
		// B's median is better by more than A's own run-to-run spread.
		return verdictBetter
	}
	return verdictSame
}

// compareLedgers lines the two ledgers up metric by metric and workload
// by workload. Host-time metrics are judged on medians over all of a
// side's runs; simulated metrics and digests repeat exactly for a seed,
// so they are compared run by run on the seeds both sides ran.
func compareLedgers(a, b ledger) (rows []comparison, digestDiffs []string) {
	type key struct {
		workload string
		trace    bool
	}
	group := func(l ledger) map[key][]runResult {
		g := make(map[key][]runResult)
		for _, r := range l.Runs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	ga, gb := group(a), group(b)
	for _, w := range workloadCatalogue {
		for _, d := range allMetrics {
			// End-to-end figures come from untraced runs, layer figures
			// from traced ones.
			k := key{w.Name, d.Layer != "e2e"}
			if !d.appliesTo(w.Name) {
				continue
			}
			row := comparison{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Kind: d.Kind}
			bySeed := make(map[int64]float64)
			for _, r := range ga[k] {
				if v, ok := r.value(d.Name); ok {
					row.A = append(row.A, v)
					bySeed[r.Seed] = v
				}
			}
			exact, matched := true, 0
			var drift float64
			for _, r := range gb[k] {
				v, ok := r.value(d.Name)
				if !ok {
					continue
				}
				row.B = append(row.B, v)
				if av, ok := bySeed[r.Seed]; ok {
					matched++
					if av != v {
						exact = false
						drift += sign(d) * (v - av)
					}
				}
			}
			if len(row.A) == 0 || len(row.B) == 0 {
				continue
			}
			switch {
			case d.Kind == kindSim && matched == 0:
				row.Verdict = verdictUnresolved // no seed in common: nothing to compare exactly
			case d.Kind == kindSim && exact:
				row.Verdict = verdictSame
			case d.Kind == kindSim && drift > 0:
				row.Verdict = verdictWorse
			case d.Kind == kindSim:
				row.Verdict = verdictBetter
			case d.Bound > 0:
				row.Verdict = judge(d, row.A, row.B)
			default:
				row.Verdict = verdictInfo
			}
			rows = append(rows, row)
		}
		// Digests, seed by seed, from the untraced runs.
		digests := make(map[int64]map[string]string)
		for _, r := range ga[key{w.Name, false}] {
			digests[r.Seed] = r.Digests
		}
		for _, r := range gb[key{w.Name, false}] {
			da, ok := digests[r.Seed]
			if !ok {
				continue
			}
			for _, name := range sortedKeys(r.Digests) {
				if da[name] != r.Digests[name] {
					digestDiffs = append(digestDiffs, fmt.Sprintf("%s seed %d digest %s: %s -> %s", w.Name, r.Seed, name, da[name], r.Digests[name]))
				}
			}
		}
	}
	sort.Strings(digestDiffs)
	return rows, digestDiffs
}

// hostsAgree reports whether every run of both ledgers was measured on a
// comparable host (same core count, GOMAXPROCS, Go version, platform).
func hostsAgree(a, b ledger) bool {
	var first *hostStamp
	for _, l := range []ledger{a, b} {
		for i := range l.Runs {
			if first == nil {
				first = &l.Runs[i].Host
			} else if !first.sameHost(l.Runs[i].Host) {
				return false
			}
		}
	}
	return true
}

var errCompareFailed = errors.New("compare: regression, or results not comparable")

// runCompare is `tcbench compare A.json B.json`.
func runCompare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: tcbench compare A.json B.json")
	}
	a, err := readLedger(args[0])
	if err != nil {
		return err
	}
	b, err := readLedger(args[1])
	if err != nil {
		return err
	}
	failed := false
	if !hostsAgree(a, b) {
		fmt.Fprintln(stdout, "WARNING: host stamps differ (nproc, GOMAXPROCS, Go version or platform): host-time verdicts below mean nothing")
		failed = true
	}
	rows, digestDiffs := compareLedgers(a, b)
	fmt.Fprintf(stdout, "%-24s %-34s %-4s %14s %14s %8s  %s\n", "workload", "metric", "kind", "A median", "B median", "change", "verdict")
	for _, r := range rows {
		aq1, amed, aq3 := quartiles(r.A)
		bq1, bmed, bq3 := quartiles(r.B)
		change := "n/a"
		if amed != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(bmed-amed)/amed)
		}
		fmt.Fprintf(stdout, "%-24s %-34s %-4s %14.6g %14.6g %8s  %s", r.Workload, r.Metric, r.Kind, amed, bmed, change, r.Verdict)
		if r.Kind == kindHost && (len(r.A) > 1 || len(r.B) > 1) {
			fmt.Fprintf(stdout, "  A[q1 %.6g q3 %.6g n=%d] B[q1 %.6g q3 %.6g n=%d] %s", aq1, aq3, len(r.A), bq1, bq3, len(r.B), r.Unit)
		}
		fmt.Fprintln(stdout)
		if r.Verdict == verdictWorse {
			failed = true
		}
	}
	for _, d := range digestDiffs {
		fmt.Fprintln(stdout, "DIGEST DIFFERS:", d)
	}
	if len(digestDiffs) == 0 {
		fmt.Fprintln(stdout, "digests: identical on every seed both sides ran")
	}
	if failed {
		return errCompareFailed
	}
	return nil
}
