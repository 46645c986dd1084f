package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricValue is one measured figure. When it summarizes a distribution
// (a median over segments, jobs or repetitions) N is the sample count and
// Q1/Q3 the quartiles.
type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// runResult is everything one run of one workload recorded.
type runResult struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  int       `json:"seconds"`
	Quick    bool      `json:"quick,omitempty"`
	Trace    bool      `json:"trace"`
	Host     hostStamp `json:"host"`
	// Attempted and Failed count operations: jobs, cells, segments and
	// identity checks. Failures says what failed.
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   []metricValue     `json:"metrics"`
	Digests   map[string]string `json:"digests"`
}

// ledger is a result file: the runs of one or more `tcbench all` passes.
type ledger struct {
	Runs []runResult `json:"runs"`
}

// value returns the named metric of the run.
func (r runResult) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// recorder collects a run's metrics, checks and digests. Recording a name
// the catalogue lacks, or one name twice, is a bug in the benchmark and
// panics: the catalogue is the contract.
type recorder struct {
	res  *runResult
	seen map[string]bool
}

func newRecorder(cfg runConfig, host hostStamp) *recorder {
	return &recorder{
		res: &runResult{
			Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds,
			Quick: cfg.Quick, Trace: cfg.Trace, Host: host,
			Digests: make(map[string]string),
		},
		seen: make(map[string]bool),
	}
}

func (r *recorder) put(mv metricValue) {
	def, ok := lookupMetric(mv.Name)
	if !ok {
		panic("tcbench: metric " + mv.Name + " is not in the catalogue")
	}
	if !def.appliesTo(r.res.Workload) {
		panic("tcbench: metric " + mv.Name + " is not catalogued for " + r.res.Workload)
	}
	if r.seen[mv.Name] {
		panic("tcbench: metric " + mv.Name + " recorded twice")
	}
	r.seen[mv.Name] = true
	mv.Unit = def.Unit
	r.res.Metrics = append(r.res.Metrics, mv)
}

// metric records a single figure.
func (r *recorder) metric(name string, v float64) { r.put(metricValue{Name: name, Value: v}) }

// dist records the median of samples with its quartiles and count.
func (r *recorder) dist(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	r.put(metricValue{Name: name, Value: med, N: len(samples), Q1: q1, Q3: q3})
}

// attempt counts n operations that were tried.
func (r *recorder) attempt(n int) { r.res.Attempted += n }

// fail counts one failed operation and says what it was.
func (r *recorder) fail(format string, args ...any) {
	r.res.Failed++
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
}

// check counts one attempted operation that failed unless ok.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempt(1)
	if !ok {
		r.fail(format, args...)
	}
}

// digest stores a content digest two commits can compare for equality.
func (r *recorder) digest(name, d string) { r.res.Digests[name] = d }

// finish sorts the metrics into catalogue order and closes the books.
func (r *recorder) finish() runResult {
	if r.res.Attempted < 1 {
		r.res.Attempted = 1
	}
	share := float64(r.res.Failed) / float64(r.res.Attempted)
	r.metric("failed_share", share)
	ms := r.res.Metrics
	sort.Slice(ms, func(i, j int) bool { return metricIndex[ms[i].Name] < metricIndex[ms[j].Name] })
	return *r.res
}

// contractMetric is one entry of the result line's metrics object.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the one-line JSON object the benchmark driver reads:
// every end_to_end metric of an untraced run, every per_layer metric of
// a traced one. A per_layer metric the workload does not measure reads
// 0: that layer does no work there.
func (r runResult) contractLine() ([]byte, error) {
	defs := contractE2E
	if r.Trace {
		defs = perLayerCatalogue()
	}
	ms := make(map[string]contractMetric, len(defs))
	for _, d := range defs {
		v, _ := r.value(d.Name)
		ms[d.Name] = contractMetric{Value: v, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, ms})
}

// print writes every recorded metric by name with its unit, then the
// failed checks and the digests.
func (r runResult) print(w io.Writer) {
	pass := "untraced"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s  P=%d nproc=%d %s commit=%s\n",
		r.Workload, r.Seed, pass, r.Host.GOMAXPROCS, r.Host.NProc, r.Host.GoVersion, r.Host.Commit)
	for _, m := range r.Metrics {
		def, _ := lookupMetric(m.Name)
		line := fmt.Sprintf("  %-34s %16.6g %-12s [%s %s]", m.Name, m.Value, m.Unit, def.Layer, def.Kind)
		if m.N > 0 {
			line += fmt.Sprintf("  n=%d", m.N)
		}
		if m.Q1 != 0 || m.Q3 != 0 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", m.Q1, m.Q3)
		}
		switch m.Name {
		case "paper.remote_stall_reduction_pct":
			line += fmt.Sprintf("  paper: up to %.0f %%, error %+.1f points", paperStallReductionPct, m.Value-paperStallReductionPct)
		case "paper.throughput_gain_pct":
			line += fmt.Sprintf("  paper: up to %.0f %%, error %+.1f points (the model over-predicts; not tuned)", paperThroughputGainPct, m.Value-paperThroughputGainPct)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, name := range sortedKeys(r.Digests) {
		fmt.Fprintf(w, "  digest %-22s %s\n", name, r.Digests[name])
	}
}

// sortedKeys returns the map's keys in ascending order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readLedger loads a result file.
func readLedger(path string) (ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ledger{}, fmt.Errorf("tcbench: reading %s: %w", path, err)
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return ledger{}, fmt.Errorf("tcbench: parsing %s: %w", path, err)
	}
	return l, nil
}

// writeJSON stores v as an indented JSON file.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("tcbench: encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("tcbench: writing %s: %w", path, err)
	}
	return nil
}
