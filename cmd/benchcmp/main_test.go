package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
BenchmarkCoherenceBroadcast32Way-16   	 1000000	       700.0 ns/op	       0 B/op
BenchmarkCoherenceDirectory32Way-16   	 2000000	       350.0 ns/op	       0 B/op
PASS
`

const sampleBaseline = `{
  "ns_per_op": {
    "BenchmarkCoherenceBroadcast32Way": 710.0,
    "BenchmarkCoherenceDirectory32Way": 340.0
  },
  "speedups": [
    {"name": "directory-vs-broadcast-32way",
     "slow": "BenchmarkCoherenceBroadcast32Way",
     "fast": "BenchmarkCoherenceDirectory32Way",
     "min_ratio": 1.5, "recorded_ratio": 2.09}
  ]
}`

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareOK(t *testing.T) {
	path := writeBaseline(t, sampleBaseline)
	var out, errb bytes.Buffer
	err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out, &errb)
	if err != nil {
		t.Fatalf("compare failed: %v\nstderr: %s", err, errb.String())
	}
	if !strings.Contains(out.String(), "2.00x") {
		t.Errorf("output missing computed speedup:\n%s", out.String())
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	slow := strings.Replace(sampleBench, "700.0 ns/op", "2000.0 ns/op", 1)
	path := writeBaseline(t, sampleBaseline)
	var out, errb bytes.Buffer
	if err := run([]string{"-baseline", path}, strings.NewReader(slow), &out, &errb); err == nil {
		t.Fatal("a 2.8x slowdown should fail the comparison")
	}
}

func TestCompareDetectsSpeedupBelowMinimum(t *testing.T) {
	// Directory barely faster than broadcast: ratio 700/650 < 1.5.
	weak := strings.Replace(sampleBench, "350.0 ns/op", "650.0 ns/op", 1)
	path := writeBaseline(t, sampleBaseline)
	var out, errb bytes.Buffer
	err := run([]string{"-baseline", path, "-tolerance", "2.0"}, strings.NewReader(weak), &out, &errb)
	if err == nil {
		t.Fatal("speedup below min_ratio should fail")
	}
	if !strings.Contains(errb.String(), "BELOW") && !strings.Contains(errb.String(), "required") {
		t.Errorf("stderr should name the failed speedup:\n%s", errb.String())
	}
}

func TestUpdateRewritesBaseline(t *testing.T) {
	path := writeBaseline(t, sampleBaseline)
	var out, errb bytes.Buffer
	if err := run([]string{"-baseline", path, "-update"}, strings.NewReader(sampleBench), &out, &errb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "700") || !strings.Contains(string(raw), `"recorded_ratio": 2`) {
		t.Errorf("updated baseline missing new values:\n%s", raw)
	}
}

// TestUpdateRecordsBytesPerOp: B/op goes on file for the benchmarks that
// report it and for no others, whatever sits between it and ns/op.
func TestUpdateRecordsBytesPerOp(t *testing.T) {
	bench := `BenchmarkNewMachineFresh-2   	     500	   2300000 ns/op	  512344 B/op	    3069 allocs/op
BenchmarkMachineRound-2      	     100	  21000000 ns/op	  1.5 refs/ns	   64 B/op
BenchmarkSetAssocHotSoA-2    	30000000	        38.9 ns/op
`
	path := writeBaseline(t, `{"ns_per_op": {}, "speedups": []}`)
	var out, errb bytes.Buffer
	if err := run([]string{"-baseline", path, "-update"}, strings.NewReader(bench), &out, &errb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Baseline
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"BenchmarkNewMachineFresh": 512344, "BenchmarkMachineRound": 64}
	if !reflect.DeepEqual(got.BytesPerOp, want) {
		t.Errorf("bytes_per_op = %v, want %v", got.BytesPerOp, want)
	}
	if len(got.NsPerOp) != 3 {
		t.Errorf("ns_per_op = %v, want all three benchmarks", got.NsPerOp)
	}
}

func TestParseBenchRejectsEmpty(t *testing.T) {
	if _, _, err := parseBench(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input should error")
	}
}

func TestReportModeNeverFails(t *testing.T) {
	slow := strings.Replace(sampleBench, "700.0 ns/op", "2000.0 ns/op", 1)
	path := writeBaseline(t, sampleBaseline)
	var out, errb bytes.Buffer
	if err := run([]string{"-baseline", path, "-report"}, strings.NewReader(slow), &out, &errb); err != nil {
		t.Fatalf("report mode must not fail: %v", err)
	}
	if !strings.Contains(out.String(), "report mode") {
		t.Errorf("output should note report mode:\n%s", out.String())
	}
}

const stampedBaseline = `{
  "generated_with": "make bench-baseline [host: 999 cores, GOMAXPROCS 999]",
  "ns_per_op": {
    "BenchmarkCoherenceBroadcast32Way": 710.0,
    "BenchmarkCoherenceDirectory32Way": 340.0
  },
  "speedups": []
}`

// TestUpdateStampsHostFacts pins the generated_with host annotation: each
// -update replaces any previous "[host: ...]" suffix with the measuring
// host's core count and GOMAXPROCS, never stacking copies.
func TestUpdateStampsHostFacts(t *testing.T) {
	path := writeBaseline(t, stampedBaseline)
	var out, errb bytes.Buffer
	if err := run([]string{"-baseline", path, "-update"}, strings.NewReader(sampleBench), &out, &errb); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), fmt.Sprintf("[host: %d cores, GOMAXPROCS ", runtime.NumCPU())) {
		t.Errorf("generated_with missing fresh host facts:\n%s", raw)
	}
	if strings.Contains(string(raw), "[host: 999 cores") {
		t.Errorf("stale host facts must be replaced, not stacked:\n%s", raw)
	}
	if !strings.Contains(string(raw), "make bench-baseline [host:") {
		t.Errorf("the human part of generated_with must survive:\n%s", raw)
	}
}
