package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCatalogue is the drift test: the committed
// BENCHMARK.json is exactly what the Go catalogue implies, and the
// catalogue stays inside the benchmark driver's limits.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var committed benchmarkDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&committed); err != nil {
		t.Fatal(err)
	}
	want := catalogueDoc()
	if !reflect.DeepEqual(committed, want) {
		t.Errorf("BENCHMARK.json drifted from the catalogue; regenerate it with `go run ./cmd/tcbench catalogue > BENCHMARK.json`")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", want.RunSeconds)
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, d := range allMetrics {
		for _, w := range d.On {
			if !seen[w] {
				t.Errorf("%s applies to unknown workload %q", d.Name, w)
			}
		}
	}
}

// expectedMetrics lists what a run of the workload must emit: the
// end-to-end figures from an untraced run, the workload's own end-to-end
// figures plus the layer figures from a traced one.
func expectedMetrics(workload string, traced bool) map[string]string {
	defs := append(append([]metricDef(nil), contractE2E...), namedE2E...)
	if traced {
		defs = perLayerCatalogue()
	}
	want := make(map[string]string)
	for _, d := range defs {
		if d.appliesTo(workload) {
			want[d.Name] = d.Unit
		}
	}
	return want
}

// TestQuickRunsEmitTheCatalogue runs every workload at toy sizes, once
// untraced and once traced, and holds the emitted metrics to the
// catalogue: each applicable name exactly once, with its unit, nothing
// else; the result line carries exactly the metrics BENCHMARK.json
// promises for that kind of run.
func TestQuickRunsEmitTheCatalogue(t *testing.T) {
	for _, w := range workloadCatalogue {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() && (w.Name == wlGridPaper || w.Name == wlServiceFloor) {
				continue // the service workloads' traced passes are the slow ones
			}
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // runs share nothing but the process: daemons bind ephemeral ports
				cfg := runConfig{Workload: w.Name, Seed: defaultSeed, Seconds: 1, Quick: true, Trace: traced}
				if traced {
					cfg.SpansPath = filepath.Join(t.TempDir(), "spans.json")
				}
				res, err := runWorkload(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("attempted %d failed %d: %v", res.Attempted, res.Failed, res.Failures)
				}
				want := expectedMetrics(w.Name, traced)
				got := make(map[string]int)
				for _, m := range res.Metrics {
					got[m.Name]++
					if unit, ok := want[m.Name]; !ok {
						t.Errorf("emitted %s, which the catalogue does not list for this run", m.Name)
					} else if m.Unit != unit || unit == "" {
						t.Errorf("%s: unit %q, catalogue says %q", m.Name, m.Unit, unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", m.Name, m.Value)
					}
				}
				for n := range want {
					if got[n] != 1 {
						t.Errorf("%s emitted %d times, want once", n, got[n])
					}
				}
				if len(res.Digests) == 0 {
					t.Error("no digest recorded")
				}

				line, err := res.contractLine()
				if err != nil {
					t.Fatal(err)
				}
				var obj struct {
					Correct   *bool                     `json:"correct"`
					Attempted *int                      `json:"attempted"`
					Failed    *int                      `json:"failed"`
					Metrics   map[string]contractMetric `json:"metrics"`
				}
				dec := json.NewDecoder(bytes.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&obj); err != nil {
					t.Fatal(err)
				}
				if obj.Correct == nil || !*obj.Correct || obj.Attempted == nil || obj.Failed == nil {
					t.Errorf("result line %s", line)
				}
				promised := contractE2E
				if traced {
					promised = perLayerCatalogue()
				}
				if len(obj.Metrics) != len(promised) {
					t.Errorf("result line has %d metrics, BENCHMARK.json promises %d", len(obj.Metrics), len(promised))
				}
				for _, d := range promised {
					m, ok := obj.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("result line: %s = %+v (present %v)", d.Name, m, ok)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				if traced {
					if _, err := os.Stat(cfg.SpansPath); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

// TestForcedMismatchFailsTheRun is the negative test: one corrupted
// digest drives failed_share above zero and the command to a non-zero
// exit, on every workload.
func TestForcedMismatchFailsTheRun(t *testing.T) {
	for _, w := range workloadCatalogue {
		if testing.Short() && w.Name != wlMachineSerial {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{Workload: w.Name, Seed: defaultSeed, Seconds: 1, Quick: true, forceMismatch: true}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			share, _ := res.value("failed_share")
			if res.Failed == 0 || share <= 0 || len(res.Failures) == 0 {
				t.Fatalf("failed %d share %v failures %v", res.Failed, share, res.Failures)
			}
			var out bytes.Buffer
			if err := report(res, false, &out); !errors.Is(err, errChecksFailed) {
				t.Errorf("report returned %v, want errChecksFailed", err)
			}
			var obj struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &obj); err != nil || obj.Correct || obj.Failed == 0 {
				t.Errorf("last line %s: %v", lines[len(lines)-1], err)
			}
		})
	}
}

func TestRunExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no-such-workload"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := run([]string{"compare", "only-one.json"}, &out, &errOut); code == 0 {
		t.Error("compare with one file exited 0")
	}
	out.Reset()
	if code := run([]string{"catalogue"}, &out, &errOut); code != 0 || !json.Valid(out.Bytes()) {
		t.Errorf("catalogue exited %d with %q", code, out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, med, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := percentile([]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
}

// TestSelfTimeSubtractsChildren: a span's self time is its duration
// minus the union of its children's intervals, overlaps counted once.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(-1, "parent", "r", at(0), at(100))
	tr.add(root, "child", "r", at(10), at(40))
	tr.add(root, "child", "r", at(30), at(60))
	self := tr.selfTimes()
	if self["parent"] != 50*time.Millisecond {
		t.Errorf("parent self time %v, want 50ms", self["parent"])
	}
	if self["child"] != 60*time.Millisecond {
		t.Errorf("child self time %v, want 60ms", self["child"])
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(-1, "x", "y")) // the untraced pass: no-ops
}
