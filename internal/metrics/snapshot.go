package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Kind classifies a series.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value.
	KindGauge
	// KindHistogram is a bucketed distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// MarshalText renders the kind as its string name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the string name back into a Kind, so snapshots
// round-trip through their JSON wire form (e.g. the job-server result
// payloads internal/client decodes).
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("metrics: unknown kind %q", text)
	}
	return nil
}

// Sample is one series' value at snapshot time.
type Sample struct {
	// Name is the metric name.
	Name string `json:"name"`
	// Labels is the series' label set (nil for the unlabeled series).
	Labels Labels `json:"labels,omitempty"`
	// Kind classifies the sample.
	Kind Kind `json:"kind"`
	// Count is the counter value, or the histogram observation count.
	Count uint64 `json:"count,omitempty"`
	// Value is the gauge value.
	Value float64 `json:"value,omitempty"`
	// Sum is the histogram's sum of observations.
	Sum uint64 `json:"sum,omitempty"`
	// Bounds and Buckets carry the histogram shape; Buckets has one extra
	// trailing element for the overflow (+Inf) bucket.
	Bounds  []uint64 `json:"bounds,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`

	// skey caches seriesKey(Name, Labels): Registry.Snapshot copies it
	// from the series, and Delta and Merge return every sample keyed. A
	// decoded or hand-built sample has none until a merge-join keys it;
	// key computes it on demand.
	skey string
}

// key is the sample's deterministic sort/match key.
func (s *Sample) key() string {
	if s.skey == "" {
		return seriesKey(s.Name, s.Labels)
	}
	return s.skey
}

// keyed returns s carrying its key.
func (s Sample) keyed() Sample {
	s.skey = s.key()
	return s
}

// Snapshot is an immutable, deterministically ordered view of a
// registry's series: samples ascend by series key (name, then canonical
// labels) and no key appears twice. Every snapshot this package returns
// keeps that order, and so does its JSON round trip; Get, Delta and Merge
// rely on it.
// Snapshots may share label maps and slices with the snapshots they were
// derived from, so a sample's Labels, Bounds and Buckets are read-only.
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Snapshot reads every series. Collector functions run at this point;
// atomic series are loaded. The result is in key order. Its samples
// share their label maps and histogram bounds with the registry, which
// never changes either after registration.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	list := append([]*series(nil), r.sorted...)
	r.mu.RUnlock()

	samples := make([]Sample, len(list))
	for i, s := range list {
		smp := &samples[i]
		smp.Name, smp.Labels, smp.Kind, smp.skey = s.name, s.labels, s.kind, s.key
		switch {
		case s.counter != nil:
			smp.Count = s.counter.Value()
		case s.cfunc != nil:
			smp.Count = s.cfunc()
		case s.gauge != nil:
			smp.Value = s.gauge.Value()
		case s.gfunc != nil:
			smp.Value = s.gfunc()
		case s.hist != nil:
			smp.Count = s.hist.Count()
			smp.Sum = s.hist.Sum()
			smp.Bounds = s.hist.bounds
			smp.Buckets = s.hist.BucketCounts()
		}
	}
	return Snapshot{Samples: samples}
}

// Get returns the sample for (name, labels) and whether it exists.
func (s Snapshot) Get(name string, labels Labels) (Sample, bool) {
	want := seriesKey(name, labels)
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].key() >= want })
	if i < len(s.Samples) && s.Samples[i].key() == want {
		return s.Samples[i], true
	}
	return Sample{}, false
}

// Counter returns the count of a counter sample (0 when absent).
func (s Snapshot) Counter(name string, labels Labels) uint64 {
	smp, ok := s.Get(name, labels)
	if !ok {
		return 0
	}
	return smp.Count
}

// Gauge returns the value of a gauge sample (0 when absent).
func (s Snapshot) Gauge(name string, labels Labels) float64 {
	smp, ok := s.Get(name, labels)
	if !ok {
		return 0
	}
	return smp.Value
}

// Delta returns this snapshot minus prev: counters and histograms
// subtract series-wise (series absent from prev pass through unchanged,
// and a count never drops below zero), gauges keep their current value.
// Use it to isolate a measured interval from a warm-up prefix. It is one
// merge-join over the two key-ordered sample lists.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := make([]Sample, 0, len(s.Samples))
	p := prev.Samples
	for _, cur := range s.Samples {
		cur = cur.keyed()
		for len(p) > 0 && p[0].key() < cur.skey {
			p = p[1:]
		}
		if len(p) > 0 && p[0].Kind == cur.Kind && p[0].key() == cur.skey {
			cur = cur.minus(&p[0])
		}
		out = append(out, cur)
	}
	return Snapshot{Samples: out}
}

// minus subtracts p's counts from s's (s's kind, which p shares).
func (s Sample) minus(p *Sample) Sample {
	switch s.Kind {
	case KindCounter:
		s.Count = sub(s.Count, p.Count)
	case KindHistogram:
		s.Count = sub(s.Count, p.Count)
		s.Sum = sub(s.Sum, p.Sum)
		b := make([]uint64, len(s.Buckets))
		for i, v := range s.Buckets {
			if i < len(p.Buckets) {
				v = sub(v, p.Buckets[i])
			}
			b[i] = v
		}
		s.Buckets = b
	}
	return s
}

// Merge returns the series-wise accumulation of the two snapshots:
// counters, histogram counts and gauge values add (a merged gauge is a
// total across machines — divide by run count for a mean). Series present
// in only one snapshot pass through; where the two disagree on a series'
// kind, s's sample wins unchanged. It is one merge-join over the two
// key-ordered sample lists.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	a, b := s.Samples, o.Samples
	out := make([]Sample, 0, max(len(a), len(b)))
	for len(a) > 0 && len(b) > 0 {
		x, y := a[0].keyed(), b[0].keyed()
		switch {
		case x.skey < y.skey:
			out, a = append(out, x), a[1:]
		case y.skey < x.skey:
			out, b = append(out, y), b[1:]
		default:
			out, a, b = append(out, x.plus(&y)), a[1:], b[1:]
		}
	}
	for _, smp := range a {
		out = append(out, smp.keyed())
	}
	for _, smp := range b {
		out = append(out, smp.keyed())
	}
	return Snapshot{Samples: out}
}

// plus adds o's values to s's when the two are of one kind.
func (s Sample) plus(o *Sample) Sample {
	if s.Kind == o.Kind && s.Kind == KindHistogram {
		s.Buckets = append([]uint64(nil), s.Buckets...)
	}
	s.add(o)
	return s
}

// add adds o's values into s's when the two are of one kind, writing
// s's buckets in place.
func (s *Sample) add(o *Sample) {
	if s.Kind != o.Kind {
		return
	}
	switch s.Kind {
	case KindCounter:
		s.Count += o.Count
	case KindGauge:
		s.Value += o.Value
	case KindHistogram:
		s.Count += o.Count
		s.Sum += o.Sum
		for i := range s.Buckets {
			if i < len(o.Buckets) {
				s.Buckets[i] += o.Buckets[i]
			}
		}
	}
}

// Accumulate sets s to s.Merge(o) in place: a series s already holds is
// updated where it stands, so once s has seen every series o carries an
// accumulation allocates nothing. It writes s's histogram buckets, so
// they must be s's own, as they are when s started empty or as a Clone
// (a series new to s arrives with a copy of its buckets); o is never
// written. Hand s's samples out as a Clone, which later calls leave
// alone.
func (s *Snapshot) Accumulate(o Snapshot) {
	var fresh []Sample
	a := s.Samples
	for k := range o.Samples {
		y := &o.Samples[k]
		key := y.key()
		for len(a) > 0 && a[0].key() < key {
			a = a[1:]
		}
		if len(a) > 0 && a[0].key() == key {
			a[0].add(y)
			continue
		}
		smp := y.keyed()
		smp.Buckets = slices.Clone(smp.Buckets)
		fresh = append(fresh, smp)
	}
	if len(fresh) > 0 || s.Samples == nil { // Merge also makes a nil list empty
		*s = s.Merge(Snapshot{Samples: fresh})
	}
}

// Clone returns a copy of s that Accumulate on s never writes: its own
// sample list and histogram buckets (label maps and bounds, which
// nothing writes, stay shared).
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{Samples: slices.Clone(s.Samples)}
	for i := range out.Samples {
		out.Samples[i].Buckets = slices.Clone(out.Samples[i].Buckets)
	}
	return out
}

// MergeAll folds a slice of snapshots into one, left to right. Folding
// one snapshot copies its sample list (a nil list stays nil); folding
// none yields a snapshot with no sample list.
func MergeAll(snaps []Snapshot) Snapshot {
	if len(snaps) == 0 {
		return Snapshot{}
	}
	out := Snapshot{Samples: append([]Sample(nil), snaps[0].Samples...)}
	for _, s := range snaps[1:] {
		out = out.Merge(s)
	}
	return out
}

func sub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// WriteJSON emits the snapshot as indented JSON, the bytes a
// json.Encoder with a two-space indent writes. Output is byte-stable for
// equal snapshots: samples are in key order and label keys are sorted.
func (s Snapshot) WriteJSON(w io.Writer) error {
	compact, err := s.AppendJSON(nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = buf.WriteTo(w)
	return err
}
