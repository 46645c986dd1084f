// Package metrics is the simulator's structured observability layer: a
// lock-cheap registry of named counters, gauges and histograms with
// labeled series. Components obtain a metric handle once (a registry
// lookup under a read lock) and then update it with a single atomic
// operation per event, so instrumentation is safe to leave on in hot
// paths and under concurrent sweep runs.
//
// Registries also accept collector functions (CounterFunc / GaugeFunc):
// closures read at snapshot time. Components that already maintain
// plain counters — the cache hierarchy's per-source totals, the
// scheduler's migration count — register a closure instead of double
// counting, which keeps their single-goroutine hot paths untouched.
//
// A Snapshot is an immutable, deterministically ordered view of every
// series; snapshots subtract (Delta), accumulate (Merge) and export to
// JSON and CSV, so one snapshot answers "what did this run do" and a
// merged snapshot answers the same for a whole parameter sweep.
//
// Snapshot order is by series key, the metric name followed by its
// canonical labels, computed once when the series is registered. Samples
// carry it, so Registry.Snapshot emits series in order without sorting,
// and Delta and Merge are single linear merge-joins. The JSON encoding is
// written by an appender that produces encoding/json's bytes exactly.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one series' label set ("source" -> "remote-L2"). A nil map
// is the unlabeled series of a metric.
type Labels map[string]string

// appendKeys appends the label names to keys in sorted order. Callers
// pass a small stack array's slice so that no allocation is needed.
func (l Labels) appendKeys(keys []string) []string {
	for k := range l {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// canonical renders labels as a stable "k=v,k=v" string (keys sorted),
// used as the registry key suffix and for deterministic export order.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	var buf [4]string
	var sb strings.Builder
	for i, k := range l.appendKeys(buf[:0]) {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(l[k])
	}
	return sb.String()
}

// clone copies the labels so a handle cannot be mutated through the
// caller's map after registration.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// Counter is a monotonically increasing uint64. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFromBits(g.bits.Load()) }

// Histogram counts uint64 observations into fixed buckets. Bounds are
// inclusive upper edges; observations above the last bound land in the
// implicit +Inf bucket. Safe for concurrent use.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// BucketCounts returns per-bucket counts; the extra final element is the
// overflow (+Inf) bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// RestoreState overwrites the histogram's observations with a previously
// captured (BucketCounts, Sum, Count) triple — the machine-snapshot
// restore path. counts must have len(Bounds())+1 elements. Not safe for
// use concurrently with Observe; restore happens on a quiesced machine.
func (h *Histogram) RestoreState(counts []uint64, sum, n uint64) error {
	if len(counts) != len(h.counts) {
		return fmt.Errorf("metrics: histogram restore with %d buckets, want %d", len(counts), len(h.counts))
	}
	for i, c := range counts {
		h.counts[i].Store(c)
	}
	h.sum.Store(sum)
	h.n.Store(n)
	return nil
}

// CounterFunc is a collector returning a monotonic count at read time.
type CounterFunc func() uint64

// GaugeFunc is a collector returning an instantaneous value at read time.
type GaugeFunc func() float64

// series is one registered metric instance.
type series struct {
	key    string // seriesKey(name, labels), computed once at registration
	name   string
	labels Labels
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	cfunc   CounterFunc
	gfunc   GaugeFunc
}

// Registry holds every registered series. Lookups (get-or-create) take a
// mutex; the returned handles update lock-free. Safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
	sorted []*series // every series, in key order: the order of a Snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

func seriesKey(name string, labels Labels) string {
	lc := labels.canonical()
	if lc == "" {
		return name
	}
	return name + "{" + lc + "}"
}

// lookup returns the existing series for (name, labels), or registers one
// built by mk. Registering the same key with a different kind panics:
// that is a programming error, like redeclaring a variable.
func (r *Registry) lookup(name string, labels Labels, kind Kind, mk func() *series) *series {
	key := seriesKey(name, labels)
	r.mu.RLock()
	s, ok := r.series[key]
	r.mu.RUnlock()
	if ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", key, s.kind, kind))
		}
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", key, s.kind, kind))
		}
		return s
	}
	s = mk()
	s.key = key
	r.put(s)
	return s
}

// put registers s under its key, replacing any series already there and
// keeping r.sorted in key order. The caller holds r.mu.
func (r *Registry) put(s *series) {
	i := sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i].key >= s.key })
	if _, ok := r.series[s.key]; ok {
		r.sorted[i] = s
	} else {
		r.sorted = slices.Insert(r.sorted, i, s)
	}
	r.series[s.key] = s
}

// Counter returns (registering if needed) the counter series.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	s := r.lookup(name, labels, KindCounter, func() *series {
		return &series{name: name, labels: labels.clone(), kind: KindCounter, counter: &Counter{}}
	})
	return s.counter
}

// Gauge returns (registering if needed) the gauge series.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	s := r.lookup(name, labels, KindGauge, func() *series {
		return &series{name: name, labels: labels.clone(), kind: KindGauge, gauge: &Gauge{}}
	})
	return s.gauge
}

// Histogram returns (registering if needed) the histogram series. The
// bounds of an existing series win; they must be strictly increasing.
func (r *Registry) Histogram(name string, labels Labels, bounds []uint64) *Histogram {
	s := r.lookup(name, labels, KindHistogram, func() *series {
		b := append([]uint64(nil), bounds...)
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				panic(fmt.Sprintf("metrics: histogram %s bounds not increasing: %v", name, bounds))
			}
		}
		h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		return &series{name: name, labels: labels.clone(), kind: KindHistogram, hist: h}
	})
	return s.hist
}

// RegisterCounterFunc registers a collector read at snapshot time as a
// counter. Re-registering the same key replaces the collector.
func (r *Registry) RegisterCounterFunc(name string, labels Labels, f CounterFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.put(&series{key: seriesKey(name, labels), name: name, labels: labels.clone(), kind: KindCounter, cfunc: f})
}

// RegisterGaugeFunc registers a collector read at snapshot time as a
// gauge. Re-registering the same key replaces the collector.
func (r *Registry) RegisterGaugeFunc(name string, labels Labels, f GaugeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.put(&series{key: seriesKey(name, labels), name: name, labels: labels.clone(), kind: KindGauge, gfunc: f})
}

// Len returns the number of registered series.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.series)
}
