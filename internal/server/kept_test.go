package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"threadcluster/internal/metrics"
	"threadcluster/internal/sweep"
)

// fuzzShapes is one interning table across fuzz inputs, so that a shape
// one input interned serves the next input of that shape.
var fuzzShapes shapeTable

// FuzzKeptPayload builds payloads from fuzzed snapshots — negative and
// exponent-form gauges, histogram bounds and buckets, seeds, and names,
// labels and task errors with escapes, quotes and digits — and requires
// the served bytes written from the kept shape and values to equal the
// compact encoding EncodeResultPayload built, at the declared length.
func FuzzKeptPayload(f *testing.F) {
	f.Add(int64(7), 0.25, uint64(3), uint64(9), "0", "boom")
	f.Add(int64(-3), -1.5e-7, uint64(0), uint64(1), `x"1\2<3>&`, `boom: "42" \ `+"\x01 9e9 -1 \xff")
	f.Add(int64(math.MaxInt64), -2.5e21, uint64(math.MaxUint64), uint64(0), "", "")
	f.Add(int64(math.MinInt64), 1e21, uint64(1), uint64(1<<40), "123", "-0.5e+3")
	f.Add(int64(1), 5e-324, uint64(2), uint64(2), `q\`, `\"7\\"`)
	var sc payloadScratch
	f.Fuzz(func(t *testing.T, seed int64, gauge float64, count, bucket uint64, label, errText string) {
		snap := metrics.Snapshot{Samples: []metrics.Sample{
			{Name: "a_total", Kind: metrics.KindCounter, Count: count},
			{Name: "b_gauge", Labels: metrics.Labels{"k": label, "n": "42"}, Kind: metrics.KindGauge, Value: gauge},
			{Name: "c_ms", Kind: metrics.KindHistogram, Count: count, Sum: bucket * 3,
				Bounds: []uint64{1, bucket}, Buckets: []uint64{count, bucket, 0}},
		}}
		results := []sweep.Result{
			{Name: "w/p/t", Seed: seed, Metrics: snap},
			{Name: label, Seed: -seed, Err: errors.New(errText)},
		}
		p, compact, err := EncodeResultPayload(sc.compact[:0], nil, results, sweep.Merged(results))
		if err != nil {
			return // a NaN or infinite gauge, refused as json.Marshal refuses it
		}
		sc.compact = compact
		want := compact
		if len(fuzzShapes.m) > 1000 { // the fuzz function runs on one goroutine
			fuzzShapes.m = nil
		}
		sh, _, err := fuzzShapes.intern(&sc, compact, p.Digest)
		if err != nil {
			t.Fatal(err)
		}
		k := keptPayload{shape: sh, vals: string(sc.vals)}
		var got bytes.Buffer
		if err := k.writeTo(&got, p.Digest); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("served bytes from the kept payload\n got %s\nwant %s", got.Bytes(), want)
		}
		if n := k.size(p.Digest); n != len(want) {
			t.Fatalf("declared length %d, served %d bytes", n, len(want))
		}
	})
}

// TestSettledJobsShareOneShape: one-cell jobs of one kind, submitted and
// run concurrently with different seeds, intern one shape between them,
// and each retains at most 1 KB of its own, as the server_result_bytes
// gauge counts it. Every job still serves its own offline payload.
func TestSettledJobsShareOneShape(t *testing.T) {
	const jobs, perJob = 12, 1024
	s := startServer(t, Options{JobWorkers: 4}, nil)
	spec := func(i int) JobSpec {
		sp := smallSpec(fmt.Sprintf("one-%d", i))
		sp.Seed = int64(100 + i)
		return sp
	}
	var wg sync.WaitGroup
	errc := make(chan error, jobs)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), spec(i))
			errc <- err
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range jobs {
		if st := waitTerminal(t, s, spec(i).ID); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
	}

	s.shapes.mu.Lock()
	shapes := len(s.shapes.m)
	s.shapes.mu.Unlock()
	s.mu.Lock()
	shape := s.jobs[spec(0).ID].kept.shape
	for i := range jobs {
		if k := s.jobs[spec(i).ID].kept; k.shape != shape || len(k.vals) > perJob {
			t.Errorf("job %d keeps %d bytes of values on shape %p, want at most %d on the one shape %p",
				i, len(k.vals), k.shape, perJob, shape)
		}
	}
	s.mu.Unlock()
	if shapes != 1 {
		t.Fatalf("%d jobs of one kind interned %d shapes, want 1", jobs, shapes)
	}
	gauge := s.Registry().Snapshot().Gauge("server_result_bytes", nil)
	if own := (int(gauge) - len(shape.text)) / jobs; own > perJob {
		t.Fatalf("server_result_bytes %v: %d bytes per job beyond the %d-byte shape, want at most %d",
			gauge, own, len(shape.text), perJob)
	}

	for _, i := range []int{0, jobs - 1} {
		want, err := json.Marshal(offlineResult(t, spec(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := s.Result(spec(i).ID); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("job %d serves other bytes than its offline payload (err %v)", i, err)
		}
	}
}

// stringSink counts what is written to it, as a string writer.
type stringSink struct{ n int }

func (w *stringSink) Write(p []byte) (int, error)       { w.n += len(p); return len(p), nil }
func (w *stringSink) WriteString(s string) (int, error) { w.n += len(s); return len(s), nil }

// TestKeptPayloadWritesWithoutAllocating: writing the served bytes of a
// kept payload allocates nothing, and a fetch through the HTTP handler
// allocates far less than the body it serves: no rendering pass and no
// body buffer per fetch.
func TestKeptPayloadWritesWithoutAllocating(t *testing.T) {
	s := startServer(t, Options{}, nil)
	if _, err := s.Submit(context.Background(), diffSpec("alloc")); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, "alloc"); st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Error)
	}
	served, err := s.Result("alloc")
	if err != nil {
		t.Fatal(err)
	}
	k, digest, err := s.kept("alloc")
	if err != nil {
		t.Fatal(err)
	}
	var sink stringSink
	if allocs := testing.AllocsPerRun(20, func() { _ = k.writeTo(&sink, digest) }); allocs != 0 {
		t.Fatalf("writeTo allocated %v times per call, want 0", allocs)
	}
	if want := 21 * len(served); sink.n != want {
		t.Fatalf("wrote %d bytes in 21 calls, want %d", sink.n, want)
	}

	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/alloc/result", nil)
	w := &discardResponse{header: make(http.Header)}
	const fetches = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range fetches {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	if w.code != http.StatusOK || w.n != fetches*len(served) || w.header.Get("Content-Length") != fmt.Sprint(len(served)) {
		t.Fatalf("fetches answered %d with %d bytes (Content-Length %s), want 200 with %d of %d",
			w.code, w.n, w.header.Get("Content-Length"), fetches, len(served))
	}
	// Under the race detector the pool drops some of the 32 KB writers, and
	// a fetch reallocates one.
	if perFetch := (after.TotalAlloc - before.TotalAlloc) / fetches; perFetch > uint64(len(served))/4 && !raceEnabled {
		t.Fatalf("a fetch allocated %d bytes for a %d-byte body", perFetch, len(served))
	}
}

// discardResponse is an http.ResponseWriter that counts the body and
// keeps one header map across requests.
type discardResponse struct {
	header http.Header
	code   int
	n      int
}

func (w *discardResponse) Header() http.Header  { return w.header }
func (w *discardResponse) WriteHeader(code int) { w.code = code }
func (w *discardResponse) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

// TestScrapesDuringSettles scrapes /metrics and takes SimTotals while
// jobs settle on two workers (run it under -race: the server accumulates
// the sim totals in place, so a scrape must read a copy), writes into
// every copy it takes, and then requires the totals to be the merge of
// every job's merged snapshot. The jobs are one spec under several IDs,
// so the merge does not depend on the order they settle in.
func TestScrapesDuringSettles(t *testing.T) {
	const jobs = 8
	s := startServer(t, Options{JobWorkers: 2}, nil)
	h := s.Handler()
	for i := range jobs {
		if _, err := s.Submit(context.Background(), smallSpec(fmt.Sprintf("scrape-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range jobs {
			_ = s.Subscribe(context.Background(), fmt.Sprintf("scrape-%d", i), func(Event) error { return nil })
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /metrics = %d", rec.Code)
		}
		tot := s.SimTotals()
		for i := range tot.Samples {
			tot.Samples[i].Count++
			for b := range tot.Samples[i].Buckets {
				tot.Samples[i].Buckets[b]++
			}
		}
	}

	merged := make([]metrics.Snapshot, jobs)
	for i := range merged {
		data, err := s.Result(fmt.Sprintf("scrape-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		var p ResultPayload
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatal(err)
		}
		merged[i] = p.Merged
	}
	got, err := s.SimTotals().AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := metrics.MergeAll(merged).AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sim totals after the scrapes\n got %s\nwant %s", got, want)
	}
}
