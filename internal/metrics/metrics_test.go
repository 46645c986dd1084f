package metrics

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops", nil)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("temp", nil)
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("depth", nil, []uint64{1, 4, 16})
	for _, v := range []uint64{0, 2, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	sample, ok := s.Get("depth", nil)
	if !ok {
		t.Fatal("histogram sample missing")
	}
	if sample.Count != 4 || sample.Sum != 107 {
		t.Errorf("histogram count=%d sum=%d, want 4/107", sample.Count, sample.Sum)
	}
	// Buckets: <=1: {0}, <=4: {2}, <=16: {5}, +Inf: {100}.
	want := []uint64{1, 1, 1, 1}
	for i, b := range sample.Buckets {
		if b != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, b, want[i])
		}
	}
}

func TestSameSeriesSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", Labels{"k": "v"})
	b := r.Counter("x", Labels{"k": "v"})
	if a != b {
		t.Error("same name+labels should return the same handle")
	}
	c := r.Counter("x", Labels{"k": "w"})
	if a == c {
		t.Error("different labels should return distinct handles")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering m as gauge after counter should panic")
		}
	}()
	r.Gauge("m", nil)
}

func TestCollectorFuncs(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	r.RegisterCounterFunc("raw", nil, func() uint64 { return n })
	r.RegisterGaugeFunc("frac", nil, func() float64 { return 0.25 })
	s := r.Snapshot()
	if got := s.Counter("raw", nil); got != 7 {
		t.Errorf("counter func = %d, want 7", got)
	}
	if got := s.Gauge("frac", nil); got != 0.25 {
		t.Errorf("gauge func = %v, want 0.25", got)
	}
	n = 9
	if got := r.Snapshot().Counter("raw", nil); got != 9 {
		t.Errorf("counter func after update = %d, want 9", got)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz", nil).Inc()
	r.Counter("aa", Labels{"b": "2", "a": "1"}).Inc()
	r.Counter("aa", Labels{"a": "1"}).Inc()
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	var b1, b2 bytes.Buffer
	if err := s1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("snapshots of an unchanged registry should serialize identically")
	}
	for i := 1; i < len(s1.Samples); i++ {
		if s1.Samples[i-1].key() >= s1.Samples[i].key() {
			t.Errorf("samples out of order at %d: %q >= %q", i, s1.Samples[i-1].key(), s1.Samples[i].key())
		}
	}
}

func TestDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops", nil)
	g := r.Gauge("level", nil)
	c.Add(10)
	g.Set(1)
	before := r.Snapshot()
	c.Add(5)
	g.Set(3)
	d := r.Snapshot().Delta(before)
	if got := d.Counter("ops", nil); got != 5 {
		t.Errorf("delta counter = %d, want 5", got)
	}
	if got := d.Gauge("level", nil); got != 3 {
		t.Errorf("delta gauge = %v, want 3 (gauges keep current value)", got)
	}
}

func TestMerge(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("ops", nil).Add(3)
	r1.Histogram("d", nil, []uint64{10}).Observe(4)
	r2 := NewRegistry()
	r2.Counter("ops", nil).Add(4)
	r2.Counter("only2", nil).Inc()
	r2.Histogram("d", nil, []uint64{10}).Observe(40)
	m := MergeAll([]Snapshot{r1.Snapshot(), r2.Snapshot()})
	if got := m.Counter("ops", nil); got != 7 {
		t.Errorf("merged ops = %d, want 7", got)
	}
	if got := m.Counter("only2", nil); got != 1 {
		t.Errorf("merged only2 = %d, want 1", got)
	}
	d, ok := m.Get("d", nil)
	if !ok || d.Count != 2 || d.Sum != 44 {
		t.Errorf("merged histogram = %+v, want count 2 sum 44", d)
	}
}

// TestConcurrentAccess exercises the registry from many goroutines; run
// with -race to verify the synchronization story.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := Labels{"worker": string(rune('a' + g))}
			for i := 0; i < iters; i++ {
				r.Counter("shared", nil).Inc()
				r.Counter("per", labels).Inc()
				r.Gauge("level", labels).Set(float64(i))
				r.Histogram("lat", nil, []uint64{8, 64}).Observe(uint64(i))
				if i%128 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counter("shared", nil); got != goroutines*iters {
		t.Errorf("shared = %d, want %d", got, goroutines*iters)
	}
	h, ok := s.Get("lat", nil)
	if !ok || h.Count != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", h.Count, goroutines*iters)
	}
}
